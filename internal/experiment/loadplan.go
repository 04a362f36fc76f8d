package experiment

import (
	"fmt"
	"sort"
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

// LoadEvent is one typed event on a LoadPlan's timeline. The concrete
// types are RateChange, Burst, Mute, Unmute, Pause, Resume and ShardMix;
// the set is closed because every consumer (the installer, the trace format,
// validation) must understand every event.
type LoadEvent interface {
	// When returns the virtual instant the event applies at.
	When() time.Duration
	// String renders the event canonically — the trace format's L lines
	// and error messages use it.
	String() string
	loadEvent()
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
	At     time.Duration
	Sender proto.PID
	Rate   float64
}

// Burst multiplies the rate of Sender (AllSenders for everyone) by Factor
// during [At, At+For): the spike the overload figures sweep. Bursts
// compose multiplicatively with rate changes and with each other; when a
// burst ends, its factor divides back out (exact for non-overlapping
// bursts). A Factor below 1 is a lull.
type Burst struct {
	At     time.Duration
	For    time.Duration
	Sender proto.PID
	Factor float64
}

// Mute silences Sender (AllSenders for everyone) at instant At: its
// Poisson source stops firing, but remembers both its logical rate —
// later RateChanges apply to it — and the gap in flight, frozen until
// Unmute. Muting a crashed sender is harmless: the source keeps running
// and the cluster already drops a crashed sender's broadcasts.
type Mute struct {
	At     time.Duration
	Sender proto.PID
}

// Unmute lifts a Mute of Sender at instant At, resuming the frozen gap at
// the sender's current logical rate. Unmuting a sender that was never
// muted is a no-op.
type Unmute struct {
	At     time.Duration
	Sender proto.PID
}

// Pause silences every sender at instant At, independently of per-sender
// mutes: Resume lifts the pause, but muted senders stay muted. Pause is
// the workload analogue of stopping the world — gaps freeze exactly where
// they are.
type Pause struct {
	At time.Duration
}

// Resume lifts the Pause in force at instant At.
type Resume struct {
	At time.Duration
}

// ShardMix sets the workload's cross-shard fraction at instant At
// (groups mode only, see Config.Groups): from this instant each
// generated broadcast is addressed to the sender's home group plus one
// other group with probability Fraction, and stays shard-local
// otherwise. It is how a sweep point walks the shard-local/cross-shard
// spectrum mid-run; Config.CrossShard sets the fraction the run starts
// with.
type ShardMix struct {
	At       time.Duration
	Fraction float64
}

func (e RateChange) When() time.Duration { return e.At }
func (e Burst) When() time.Duration      { return e.At }
func (e Mute) When() time.Duration       { return e.At }
func (e Unmute) When() time.Duration     { return e.At }
func (e Pause) When() time.Duration      { return e.At }
func (e Resume) When() time.Duration     { return e.At }
func (e ShardMix) When() time.Duration   { return e.At }

func (RateChange) loadEvent() {}
func (Burst) loadEvent()      {}
func (Mute) loadEvent()       {}
func (Unmute) loadEvent()     {}
func (Pause) loadEvent()      {}
func (Resume) loadEvent()     {}
func (ShardMix) loadEvent()   {}

// senderName renders a load event's target: "all" or "p<i>".
func senderName(p proto.PID) string {
	if p == AllSenders {
		return "all"
	}
	return fmt.Sprintf("p%d", p)
}

func (e RateChange) String() string {
	return fmt.Sprintf("rate %s=%g/s", senderName(e.Sender), e.Rate)
}

func (e Burst) String() string {
	return fmt.Sprintf("burst %s x%g for %v", senderName(e.Sender), e.Factor, e.For)
}

func (e Mute) String() string     { return "mute " + senderName(e.Sender) }
func (e Unmute) String() string   { return "unmute " + senderName(e.Sender) }
func (e Pause) String() string    { return "pause" }
func (e Resume) String() string   { return "resume" }
func (e ShardMix) String() string { return fmt.Sprintf("shardmix f=%g", e.Fraction) }

// Rate appends a RateChange event and returns the plan for chaining;
// sender AllSenders re-spreads rate as a new total throughput.
func (p *LoadPlan) Rate(at time.Duration, sender proto.PID, rate float64) *LoadPlan {
	p.Events = append(p.Events, RateChange{At: at, Sender: sender, Rate: rate})
	return p
}

// Burst appends a Burst event: sender's rate (or everyone's, with
// AllSenders) multiplied by factor during [at, at+d).
func (p *LoadPlan) Burst(at, d time.Duration, sender proto.PID, factor float64) *LoadPlan {
	p.Events = append(p.Events, Burst{At: at, For: d, Sender: sender, Factor: factor})
	return p
}

// Mute appends a Mute event.
func (p *LoadPlan) Mute(at time.Duration, sender proto.PID) *LoadPlan {
	p.Events = append(p.Events, Mute{At: at, Sender: sender})
	return p
}

// Unmute appends an Unmute event.
func (p *LoadPlan) Unmute(at time.Duration, sender proto.PID) *LoadPlan {
	p.Events = append(p.Events, Unmute{At: at, Sender: sender})
	return p
}

// Pause appends a Pause event.
func (p *LoadPlan) Pause(at time.Duration) *LoadPlan {
	p.Events = append(p.Events, Pause{At: at})
	return p
}

// Resume appends a Resume event.
func (p *LoadPlan) Resume(at time.Duration) *LoadPlan {
	p.Events = append(p.Events, Resume{At: at})
	return p
}

// Mix appends a ShardMix event setting the cross-shard fraction.
func (p *LoadPlan) Mix(at time.Duration, fraction float64) *LoadPlan {
	p.Events = append(p.Events, ShardMix{At: at, Fraction: fraction})
	return p
}

// hasShardMix reports whether the plan carries a ShardMix event, which
// only a groups-mode configuration can honour.
func (p *LoadPlan) hasShardMix() bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Events {
		if _, ok := ev.(ShardMix); ok {
			return true
		}
	}
	return false
}

// timed returns the plan's events sorted by time, stable so same-instant
// events apply in slice order. A nil plan yields nil.
func (p *LoadPlan) timed() []LoadEvent {
	if p == nil {
		return nil
	}
	out := make([]LoadEvent, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].When() < out[j].When() })
	return out
}

// Validate checks every event against a system of n processes: sender IDs
// in range or AllSenders, non-negative times and durations, finite
// non-negative rates, positive finite burst factors. A nil plan is valid.
func (p *LoadPlan) Validate(n int) error { return p.validate(n) }

func (p *LoadPlan) validate(n int) error {
	if p == nil {
		return nil
	}
	checkSender := func(s proto.PID, what string) error {
		if s != AllSenders && (int(s) < 0 || int(s) >= n) {
			return fmt.Errorf("experiment: load %s names sender %d, want 0..%d or AllSenders", what, s, n-1)
		}
		return nil
	}
	for _, ev := range p.Events {
		if ev.When() < 0 {
			return fmt.Errorf("experiment: load event %q at negative time %v", ev, ev.When())
		}
		switch e := ev.(type) {
		case RateChange:
			if err := checkSender(e.Sender, "rate change"); err != nil {
				return err
			}
			if e.Rate < 0 || e.Rate != e.Rate || e.Rate > maxRate {
				return fmt.Errorf("experiment: load rate change to invalid rate %v (want 0..%g msgs/s)", e.Rate, float64(maxRate))
			}
		case Burst:
			if err := checkSender(e.Sender, "burst"); err != nil {
				return err
			}
			if !(e.Factor > 0) || e.Factor > maxBurstFactor {
				return fmt.Errorf("experiment: load burst with invalid factor %v (want 0..%g]", e.Factor, float64(maxBurstFactor))
			}
			if e.For < 0 {
				return fmt.Errorf("experiment: load burst with negative duration %v", e.For)
			}
		case Mute:
			if err := checkSender(e.Sender, "mute"); err != nil {
				return err
			}
		case Unmute:
			if err := checkSender(e.Sender, "unmute"); err != nil {
				return err
			}
		case Pause, Resume:
			// Nothing beyond the time check.
		case ShardMix:
			if e.Fraction < 0 || e.Fraction > 1 || e.Fraction != e.Fraction {
				return fmt.Errorf("experiment: load shardmix with invalid fraction %v (want 0..1)", e.Fraction)
			}
		default:
			return fmt.Errorf("experiment: unknown load event type %T", ev)
		}
	}
	return nil
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
	eng *sim.Engine
	// nominal is the nominal system size: a global RateChange re-spreads
	// its rate over it, exactly like Config.Throughput.
	nominal int
	// sources are the per-sender Poisson sources, indexed by PID; nil
	// entries (pre-crashed senders, which generate no load) absorb events
	// as no-ops.
	sources []*workload.Poisson
	// OnEvent, if non-nil, observes each event at the instant it applies.
	OnEvent func(ev LoadEvent)
	// OnShardMix, if non-nil, receives ShardMix events' fractions — a
	// groups-mode Core hooks it to retarget Broadcast. Without the hook
	// the event is a no-op (validation rejects the combination).
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
		eng:     eng,
		nominal: nominal,
		sources: sources,
		base:    make([]float64, len(sources)),
		factor:  make([]float64, len(sources)),
		muted:   make([]bool, len(sources)),
	}
	per := total / float64(nominal)
	for i := range sources {
		l.factor[i] = 1
		if sources[i] != nil {
			l.base[i] = per
		}
	}
	return l
}

// Install schedules every event of the plan on the engine, sorted by time
// with ties in slice order.
func (l *Loads) Install(plan *LoadPlan) {
	for _, ev := range plan.timed() {
		l.Schedule(ev)
	}
}

// Schedule arms one event to apply at its instant. Scheduling an event in
// the simulation's past panics, as any scheduling in the past does.
func (l *Loads) Schedule(ev LoadEvent) {
	l.eng.Schedule(sim.Time(ev.When()), func() { l.Fire(ev) })
}

// Fire applies one event at the current instant, regardless of its When.
// A Burst schedules its own end (the factor divides back out For later);
// only the burst's start is observed as an event.
func (l *Loads) Fire(ev LoadEvent) {
	switch e := ev.(type) {
	case RateChange:
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
		l.apply(e.Sender)
	case Burst:
		l.scale(e.Sender, e.Factor, false)
		l.eng.After(e.For, func() { l.scale(e.Sender, e.Factor, true) })
	case Mute:
		l.setMuted(e.Sender, true)
	case Unmute:
		l.setMuted(e.Sender, false)
	case Pause:
		l.paused = true
		l.apply(AllSenders)
	case Resume:
		l.paused = false
		l.apply(AllSenders)
	case ShardMix:
		if l.OnShardMix != nil {
			l.OnShardMix(e.Fraction)
		}
	default:
		panic(fmt.Sprintf("experiment: unknown load event type %T", ev))
	}
	if l.OnEvent != nil {
		l.OnEvent(ev)
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
	l.apply(sender)
}

func (l *Loads) setMuted(sender proto.PID, m bool) {
	if sender == AllSenders {
		for i := range l.muted {
			l.muted[i] = m
		}
	} else {
		l.muted[int(sender)] = m
	}
	l.apply(sender)
}

// apply pushes the effective rate of the targeted sender (or all) to the
// underlying sources.
func (l *Loads) apply(sender proto.PID) {
	if sender == AllSenders {
		for i := range l.sources {
			l.applyOne(i)
		}
		return
	}
	l.applyOne(int(sender))
}

func (l *Loads) applyOne(i int) {
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
