package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
)

// event is what the two timelines' events — FaultPlan's PlanEvent and
// LoadPlan's LoadEvent — have in common, and all that the machinery of
// this file needs: sorting, validation, installation. Everything an event
// type has to say is declared in one block beside the type (fields with
// their trace-header JSON tags, When, kind, String, check, apply); the
// kind tables in trace.go are the only lists of event types.
type event interface {
	// When returns the virtual instant the event applies at.
	When() time.Duration
	// String renders the event canonically — the trace format's F and L
	// lines and error messages use it.
	String() string
	// check validates the event against a system of n processes.
	check(n int) error
}

// orEmpty returns *p, or the zero value for a nil pointer: a nil plan is
// the empty timeline.
func orEmpty[P any](p *P) (plan P) {
	if p != nil {
		plan = *p
	}
	return plan
}

// timed returns the events sorted by time, stable so same-instant events
// apply in slice order.
func timed[E event](events []E) []E {
	out := append([]E(nil), events...)
	slices.SortStableFunc(out, func(a, b E) int { return cmp.Compare(a.When(), b.When()) })
	return out
}

// hasEvent reports whether the timeline holds an event of type T.
func hasEvent[T any, E event](events []E) bool {
	for _, ev := range events {
		if _, ok := any(ev).(T); ok {
			return true
		}
	}
	return false
}

// validate checks a timeline (what: "plan" or "load") against a system of
// n processes: no event before time zero, then each event's own check.
func validate[E event](what string, events []E, n int) error {
	for _, ev := range events {
		if ev.When() < 0 {
			return fmt.Errorf("experiment: %s event %q at negative time %v", what, ev, ev.When())
		}
		if err := ev.check(n); err != nil {
			return err
		}
	}
	return nil
}

// installer applies one timeline's events to a running system: Faults is
// the fault-side instance, Loads embeds the load-side one.
type installer[E event] struct {
	eng   *sim.Engine
	apply func(ev E)
	// OnEvent, if non-nil, observes each event at the instant it applies.
	OnEvent func(ev E)
}

// Install schedules every event of a timeline on the engine, sorted by
// time with ties in slice order.
func (in *installer[E]) Install(events []E) {
	for _, ev := range timed(events) {
		in.Schedule(ev)
	}
}

// Schedule arms one event to apply at its instant. Scheduling an event in
// the simulation's past panics, as any scheduling in the past does.
func (in *installer[E]) Schedule(ev E) {
	in.eng.Schedule(sim.Time(ev.When()), func() { in.Fire(ev) })
}

// Fire applies one event at the current instant, regardless of its When.
func (in *installer[E]) Fire(ev E) {
	in.apply(ev)
	if in.OnEvent != nil {
		in.OnEvent(ev)
	}
}
