package experiment

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Broadcast records one A-broadcast issued during a replication: the
// counterpart of Delivery on the sending side.
type Broadcast struct {
	Sender proto.PID
	ID     proto.MsgID
	At     sim.Time
}

// Observer receives a replication's observable events. The replication
// pipeline (runReplication) runs the workload and the faults and measures
// the awaited messages' latency; observers attach everything else —
// trace export, anything event-driven — to any point of either kind
// without touching it. Config.Observers lists the factories; the pipeline
// builds one instance per replication from each and calls them in that
// order, for every A-delivery and for whichever of BroadcastObserver,
// NetObserver, PlanObserver and LoadObserver the instance also
// implements.
//
// Observer instances are confined to their replication (one goroutine);
// anything shared across replications must synchronise, and anything
// aggregated across replications must merge in canonical (point,
// replication) order to keep results bit-identical at any worker count —
// repRegistry is that half (Trace uses it).
type Observer interface {
	// ObserveDelivery is invoked for every A-delivery at every process.
	ObserveDelivery(d Delivery)
}

// BroadcastObserver is implemented by observers that also want the
// sending side of every message.
type BroadcastObserver interface {
	// ObserveBroadcast is invoked for every A-broadcast of the replication
	// — the workload's and the crash-transient probe — as it is issued.
	ObserveBroadcast(b Broadcast)
}

// NetObserver is implemented by observers that also want the network
// model's message lifecycle points (send, wire, deliver, drop). The
// pipeline installs netmodel's tracer only when at least one observer of a
// replication asks for it, so replications without a NetObserver pay
// nothing.
type NetObserver interface {
	// ObserveNet is invoked at every message lifecycle point.
	ObserveNet(ev netmodel.TraceEvent)
}

// PlanObserver is implemented by observers that also want the fault
// plan's events — scripted crashes included — at the instants they apply.
// Processes crashed from the start (Config.Crashed) are configuration,
// not events, and are not observed.
type PlanObserver interface {
	// ObservePlan is invoked when a plan event applies.
	ObservePlan(at sim.Time, ev PlanEvent)
}

// LoadObserver is implemented by observers that also want the load
// plan's events at the instants they apply. Only plan (and interactively
// scheduled) events are observed, not their internal continuations: a
// Burst is one event, observed when the spike starts.
type LoadObserver interface {
	// ObserveLoad is invoked when a load event applies.
	ObserveLoad(at sim.Time, ev LoadEvent)
}

// ObserverFactory builds one observer instance for one replication.
// point is the index of the replication's config within the executed
// batch — a Sweep's canonical point order, a SteadyAll/TransientAll slice
// index, or 0 for single-point runs — and rep is the replication index
// within that point. Returning nil attaches nothing to the replication.
type ObserverFactory func(point, rep int, cfg Config) Observer

// repKey addresses one replication of one point in an observer's
// cross-replication state.
type repKey struct{ point, rep int }

// repRegistry is the cross-replication half of an observer: replications
// register their private instance from whatever goroutine runs them, and
// the owner reads the instances back in canonical (point, replication)
// order — what keeps its output bit-identical at any worker count. The
// zero value is empty and ready.
type repRegistry[T any] struct {
	mu   sync.Mutex
	reps map[repKey]T
}

// repInstance is one registered instance under its key.
type repInstance[T any] struct {
	repKey
	v T
}

func (g *repRegistry[T]) register(point, rep int, v T) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.reps == nil {
		g.reps = make(map[repKey]T)
	}
	g.reps[repKey{point, rep}] = v
}

// sorted returns the registered instances in canonical order.
func (g *repRegistry[T]) sorted() []repInstance[T] {
	g.mu.Lock()
	out := make([]repInstance[T], 0, len(g.reps))
	for k, v := range g.reps {
		out = append(out, repInstance[T]{k, v})
	}
	g.mu.Unlock()
	slices.SortFunc(out, func(a, b repInstance[T]) int {
		if c := cmp.Compare(a.point, b.point); c != 0 {
			return c
		}
		return cmp.Compare(a.rep, b.rep)
	})
	return out
}

// drop empties the registry.
func (g *repRegistry[T]) drop() {
	g.mu.Lock()
	g.reps = nil
	g.mu.Unlock()
}
