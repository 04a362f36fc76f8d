package experiment

import (
	"fmt"
	"time"

	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AllSenders addresses every sender at once in a load event: a global
// rate change, a system-wide burst, a mute of everyone.
const AllSenders proto.PID = -1

// LoadPlan is a deterministic, virtual-time-ordered timeline of typed
// workload-shaping events — the load-side sibling of FaultPlan. Where a
// FaultPlan decides what breaks, a LoadPlan decides what the system is
// asked to absorb while it breaks: rate changes (global or per-sender),
// bursts, per-sender mutes, whole-workload pauses.
//
// Plans compose with every other axis: carry one on Config.Load, cross
// several in a sweep through Sweep.Loads (and against whole failure
// schedules through Sweep.Plans — "overload while partitioned" is one
// grid point), attach observers to watch the events fire (LoadObserver),
// and export replayable traces whose headers embed the plan. Replications
// of a shaped experiment stay bit-identical at any Runner worker count.
//
// Build a plan from literals, or with the chainable helpers:
//
//	load := experiment.NewLoadPlan().
//		Burst(2500*time.Millisecond, 500*time.Millisecond, experiment.AllSenders, 10).
//		Mute(4*time.Second, 2).
//		Unmute(5*time.Second, 2)
//
// Event times are absolute virtual instants from the start of the
// replication, exactly as in FaultPlan. Rate changes consume no
// randomness: the gap in flight rescales deterministically (the
// exponential is memoryless), so a plan whose events leave every rate
// where it already was is bit-identical to no plan at all. Offered load
// beyond capacity still trips the steady scenarios' DivergenceBacklog
// abort — a plan that floods the system is expected to cut the run short.
type LoadPlan struct {
	// Events is the timeline. Order is irrelevant: installation sorts by
	// time, ties applying in slice order.
	Events []LoadEvent
}

// NewLoadPlan creates a plan from the given events; the chainable
// helpers below append further ones.
func NewLoadPlan(events ...LoadEvent) *LoadPlan {
	return &LoadPlan{Events: events}
}

// add appends one event and returns the plan for chaining.
func (p *LoadPlan) add(ev LoadEvent) *LoadPlan {
	p.Events = append(p.Events, ev)
	return p
}

// LoadEvent is one typed event on a LoadPlan's timeline. The concrete
// types are RateChange, Burst, Mute, Unmute, Pause, Resume and ShardMix
// (loadKinds lists them); the set is closed because every consumer (the
// installer, the trace format, validation) must understand every event.
type LoadEvent interface {
	event
	// loadEvent names the event's kind in trace headers. Being unexported
	// it also closes the set, and keeps it disjoint from PlanEvent.
	loadEvent() string
	// apply performs the event on a workload.
	apply(l *Loads)
}

// senderName renders a load event's target: "all" or "p<i>".
func senderName(p proto.PID) string {
	if p == AllSenders {
		return "all"
	}
	return fmt.Sprintf("p%d", p)
}

// checkSender reports a target that is neither AllSenders nor a sender of
// an n-process system; what names the event for the error.
func checkSender(n int, what string, s proto.PID) error {
	if s != AllSenders && (s < 0 || int(s) >= n) {
		return fmt.Errorf("experiment: load %s names sender %d, want 0..%d or AllSenders", what, s, n-1)
	}
	return nil
}

// RateChange sets the A-broadcast rate at instant At. Sender AllSenders
// re-spreads Rate as a new total nominal throughput — the per-sender rate
// becomes Rate/N for the nominal system size N, exactly like
// Config.Throughput — while a concrete Sender sets that one sender's
// absolute rate in messages per second. A rate change lands mid-gap: the
// gap in flight rescales to the new mean deterministically, consuming no
// randomness (so changing a rate to its current value is a bit-identical
// no-op).
type RateChange struct {
	At     time.Duration `json:"at,omitempty"`
	Sender proto.PID     `json:"sender,omitempty"`
	Rate   float64       `json:"rate,omitempty"`
}

func (e RateChange) When() time.Duration { return e.At }
func (RateChange) loadEvent() string     { return "rate" }

func (e RateChange) String() string {
	return fmt.Sprintf("rate %s=%g/s", senderName(e.Sender), e.Rate)
}

func (e RateChange) check(n int) error {
	if err := checkSender(n, "rate change", e.Sender); err != nil {
		return err
	}
	if e.Rate < 0 || e.Rate != e.Rate || e.Rate > maxRate {
		return fmt.Errorf("experiment: load rate change to invalid rate %v (want 0..%g msgs/s)", e.Rate, float64(maxRate))
	}
	return nil
}

func (e RateChange) apply(l *Loads) {
	if e.Sender == AllSenders {
		per := e.Rate / float64(l.nominal)
		for i := range l.base {
			if l.sources[i] != nil {
				l.base[i] = per
			}
		}
	} else {
		l.base[e.Sender] = e.Rate
	}
	l.push(e.Sender)
}

// Burst multiplies the rate of Sender (AllSenders for everyone) by Factor
// during [At, At+For): the spike the overload figures sweep. Bursts
// compose multiplicatively with rate changes and with each other; when a
// burst ends, its factor divides back out (exact for non-overlapping
// bursts). A Factor below 1 is a lull.
type Burst struct {
	At     time.Duration `json:"at,omitempty"`
	Sender proto.PID     `json:"sender,omitempty"`
	Factor float64       `json:"factor,omitempty"`
	For    time.Duration `json:"for,omitempty"`
}

func (e Burst) When() time.Duration { return e.At }
func (Burst) loadEvent() string     { return "burst" }

func (e Burst) String() string {
	return fmt.Sprintf("burst %s x%g for %v", senderName(e.Sender), e.Factor, e.For)
}

func (e Burst) check(n int) error {
	if err := checkSender(n, "burst", e.Sender); err != nil {
		return err
	}
	if !(e.Factor > 0) || e.Factor > maxBurstFactor {
		return fmt.Errorf("experiment: load burst with invalid factor %v (want 0..%g]", e.Factor, float64(maxBurstFactor))
	}
	if e.For < 0 {
		return fmt.Errorf("experiment: load burst with negative duration %v", e.For)
	}
	return nil
}

// apply starts the burst and schedules its own end (the factor divides
// back out For later); only the start is observed as an event.
func (e Burst) apply(l *Loads) {
	l.scale(e.Sender, e.Factor, false)
	l.eng.After(e.For, func() { l.scale(e.Sender, e.Factor, true) })
}

// Mute silences Sender (AllSenders for everyone) at instant At: its
// Poisson source stops firing, but remembers both its logical rate —
// later RateChanges apply to it — and the gap in flight, frozen until
// Unmute. Muting a crashed sender is harmless: the source keeps running
// and the cluster already drops a crashed sender's broadcasts.
type Mute struct {
	At     time.Duration `json:"at,omitempty"`
	Sender proto.PID     `json:"sender,omitempty"`
}

func (e Mute) When() time.Duration { return e.At }
func (Mute) loadEvent() string     { return "mute" }
func (e Mute) String() string      { return "mute " + senderName(e.Sender) }
func (e Mute) check(n int) error   { return checkSender(n, "mute", e.Sender) }
func (e Mute) apply(l *Loads)      { l.setMuted(e.Sender, true) }

// Unmute lifts a Mute of Sender at instant At, resuming the frozen gap at
// the sender's current logical rate. Unmuting a sender that was never
// muted is a no-op.
type Unmute struct {
	At     time.Duration `json:"at,omitempty"`
	Sender proto.PID     `json:"sender,omitempty"`
}

func (e Unmute) When() time.Duration { return e.At }
func (Unmute) loadEvent() string     { return "unmute" }
func (e Unmute) String() string      { return "unmute " + senderName(e.Sender) }
func (e Unmute) check(n int) error   { return checkSender(n, "unmute", e.Sender) }
func (e Unmute) apply(l *Loads)      { l.setMuted(e.Sender, false) }

// Pause silences every sender at instant At, independently of per-sender
// mutes: Resume lifts the pause, but muted senders stay muted. Pause is
// the workload analogue of stopping the world — gaps freeze exactly where
// they are.
type Pause struct {
	At time.Duration `json:"at,omitempty"`
}

func (e Pause) When() time.Duration { return e.At }
func (Pause) loadEvent() string     { return "pause" }
func (Pause) String() string        { return "pause" }
func (Pause) check(int) error       { return nil }
func (Pause) apply(l *Loads)        { l.setPaused(true) }

// Resume lifts the Pause in force at instant At.
type Resume struct {
	At time.Duration `json:"at,omitempty"`
}

func (e Resume) When() time.Duration { return e.At }
func (Resume) loadEvent() string     { return "resume" }
func (Resume) String() string        { return "resume" }
func (Resume) check(int) error       { return nil }
func (Resume) apply(l *Loads)        { l.setPaused(false) }

// ShardMix sets the workload's cross-shard fraction at instant At
// (groups mode only, see Config.Groups): from this instant each
// generated broadcast is addressed to the sender's home group plus one
// other group with probability Fraction, and stays shard-local
// otherwise. It is how a sweep point walks the shard-local/cross-shard
// spectrum mid-run; Config.CrossShard sets the fraction the run starts
// with.
type ShardMix struct {
	At       time.Duration `json:"at,omitempty"`
	Fraction float64       `json:"fraction,omitempty"`
}

func (e ShardMix) When() time.Duration { return e.At }
func (ShardMix) loadEvent() string     { return "shardmix" }
func (e ShardMix) String() string      { return fmt.Sprintf("shardmix f=%g", e.Fraction) }

func (e ShardMix) check(int) error {
	if e.Fraction < 0 || e.Fraction > 1 || e.Fraction != e.Fraction {
		return fmt.Errorf("experiment: load shardmix with invalid fraction %v (want 0..1)", e.Fraction)
	}
	return nil
}

// apply hands the fraction to the groups-mode Core's hook; without one
// the event is a no-op (validation rejects the combination).
func (e ShardMix) apply(l *Loads) {
	if l.OnShardMix != nil {
		l.OnShardMix(e.Fraction)
	}
}

// Rate appends a RateChange event and returns the plan for chaining;
// sender AllSenders re-spreads rate as a new total throughput.
func (p *LoadPlan) Rate(at time.Duration, sender proto.PID, rate float64) *LoadPlan {
	return p.add(RateChange{At: at, Sender: sender, Rate: rate})
}

// Burst appends a Burst event: sender's rate (or everyone's, with
// AllSenders) multiplied by factor during [at, at+d).
func (p *LoadPlan) Burst(at, d time.Duration, sender proto.PID, factor float64) *LoadPlan {
	return p.add(Burst{At: at, For: d, Sender: sender, Factor: factor})
}

// Mute appends a Mute event.
func (p *LoadPlan) Mute(at time.Duration, sender proto.PID) *LoadPlan {
	return p.add(Mute{At: at, Sender: sender})
}

// Unmute appends an Unmute event.
func (p *LoadPlan) Unmute(at time.Duration, sender proto.PID) *LoadPlan {
	return p.add(Unmute{At: at, Sender: sender})
}

// Pause appends a Pause event.
func (p *LoadPlan) Pause(at time.Duration) *LoadPlan {
	return p.add(Pause{At: at})
}

// Resume appends a Resume event.
func (p *LoadPlan) Resume(at time.Duration) *LoadPlan {
	return p.add(Resume{At: at})
}

// Mix appends a ShardMix event setting the cross-shard fraction.
func (p *LoadPlan) Mix(at time.Duration, fraction float64) *LoadPlan {
	return p.add(ShardMix{At: at, Fraction: fraction})
}

// maxRate bounds any per-sender rate a load plan can produce, and
// maxBurstFactor any single burst's multiplier. The cap keeps the
// Poisson mean gap at or above one virtual nanosecond even under
// stacked bursts (the installer clamps the effective rate at maxRate
// too), so virtual time always advances; rates anywhere near the cap
// are far beyond the modelled wire's capacity and trip the divergence
// abort long before the cap matters.
const (
	maxRate        = 1e9
	maxBurstFactor = 1e6
)

// Loads applies load events to a system's workload sources. It is the
// single workload-shaping path: Core.StartLoad builds it and installs
// CoreConfig.Load through it, and the interactive Cluster's load methods
// schedule through it (Core.ApplyLoad), so every surface shares one set
// of semantics.
//
// The installer keeps the logical state — per-sender base rate, the
// product of active burst factors, mute flags and the global pause — and
// pushes the effective rate (zero when paused or muted, base×factors
// otherwise) to the underlying Poisson sources. Pushing an unchanged rate
// is a no-op in the source, so events that leave a sender's rate where it
// was cost nothing, bit for bit.
type Loads struct {
	// The embedded installer carries Install, Schedule, Fire and OnEvent.
	installer[LoadEvent]
	// nominal is the nominal system size: a global RateChange re-spreads
	// its rate over it, exactly like Config.Throughput.
	nominal int
	// sources are the per-sender Poisson sources, indexed by PID; nil
	// entries (pre-crashed senders, which generate no load) absorb events
	// as no-ops.
	sources []*workload.Poisson
	// OnShardMix, if non-nil, receives ShardMix events' fractions — a
	// groups-mode Core hooks it to retarget Broadcast.
	OnShardMix func(fraction float64)

	base   []float64 // logical per-sender rate, msgs/s
	factor []float64 // product of the sender's active burst factors
	muted  []bool
	paused bool
}

// NewLoads creates the installer for one system's workload: total is the
// configured throughput (spread as total/nominal over each non-nil
// source, mirroring workload.Spread) and sources is PID-indexed — the
// sender→source mapping that load events act on.
func NewLoads(eng *sim.Engine, total float64, nominal int, sources []*workload.Poisson) *Loads {
	l := &Loads{
		base:   make([]float64, len(sources)),
		factor: make([]float64, len(sources)),
		muted:  make([]bool, len(sources)),
	}
	l.installer = installer[LoadEvent]{eng: eng, apply: func(ev LoadEvent) { ev.apply(l) }}
	l.reset(total, nominal, sources)
	return l
}

// reset returns the installer to the state NewLoads leaves it in, on its
// own engine, for sources of the same length: no event applied or
// observed, no shard-mix hook.
func (l *Loads) reset(total float64, nominal int, sources []*workload.Poisson) {
	*l = Loads{
		installer: installer[LoadEvent]{eng: l.eng, apply: l.apply},
		nominal:   nominal,
		sources:   sources,
		base:      l.base,
		factor:    l.factor,
		muted:     l.muted,
	}
	per := total / float64(nominal)
	for i := range sources {
		l.base[i], l.factor[i], l.muted[i] = 0, 1, false
		if sources[i] != nil {
			l.base[i] = per
		}
	}
}

// scale multiplies (or, on undo, divides) the burst factor of the
// targeted senders and reapplies their effective rates. x*f/f == x
// exactly when no other burst overlaps (f/f is exactly 1).
func (l *Loads) scale(sender proto.PID, f float64, undo bool) {
	each := func(i int) {
		if undo {
			l.factor[i] /= f
		} else {
			l.factor[i] *= f
		}
	}
	if sender == AllSenders {
		for i := range l.factor {
			each(i)
		}
	} else {
		each(int(sender))
	}
	l.push(sender)
}

func (l *Loads) setMuted(sender proto.PID, m bool) {
	if sender == AllSenders {
		for i := range l.muted {
			l.muted[i] = m
		}
	} else {
		l.muted[int(sender)] = m
	}
	l.push(sender)
}

func (l *Loads) setPaused(paused bool) {
	l.paused = paused
	l.push(AllSenders)
}

// push hands the effective rate of the targeted sender (or all) to the
// underlying sources.
func (l *Loads) push(sender proto.PID) {
	if sender == AllSenders {
		for i := range l.sources {
			l.pushOne(i)
		}
		return
	}
	l.pushOne(int(sender))
}

func (l *Loads) pushOne(i int) {
	src := l.sources[i]
	if src == nil {
		return
	}
	if l.paused || l.muted[i] {
		src.SetRate(0)
		return
	}
	eff := l.base[i] * l.factor[i]
	if eff > maxRate {
		eff = maxRate // stacked bursts cannot stall virtual time
	}
	src.SetRate(eff)
}
