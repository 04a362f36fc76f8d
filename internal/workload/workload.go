// Package workload generates the paper's benchmark load (§5.1): every
// process A-broadcasts messages drawn from a Poisson process, all senders
// at the same constant rate, so the overall arrival rate is the
// throughput T the latency-vs-throughput figures sweep.
//
// Sources are dynamic: SetRate changes a source's rate mid-run,
// deterministically rescaling the gap already in flight, which is what
// the experiment layer's LoadPlan (rate changes, bursts, mutes, pauses)
// is built on. A source whose rate never changes behaves bit-identically
// to the original constant-rate implementation.
package workload

import (
	"math"
	"time"

	"repro/internal/sim"
)

// Poisson schedules events with exponentially distributed gaps on a
// simulation engine. The rate can change at any instant through SetRate;
// the source stays a Poisson process piecewise, and the change consumes
// no randomness, so a run in which SetRate is never called (or called
// with the current rate) is bit-identical to a constant-rate run.
//
// The source owns the event record of its next arrival and re-arms it
// (sim.Engine.Rearm), so an arrival allocates nothing.
type Poisson struct {
	eng     *sim.Engine
	rng     sim.Rand
	rate    float64 // events per second of virtual time; <= 0 is silent
	meanGap float64 // milliseconds between events; 0 when rate <= 0
	fire    func()
	// firedFn is the method value p.fired, bound once: arm hands it to the
	// engine on every arrival, and binding it there would allocate each
	// time.
	firedFn func()
	// next is the record of the arrival in flight, queued while armed.
	next  sim.Event
	armed bool
	// unitsLeft is the remainder of the inter-event gap in flight, in
	// units of the mean gap — an Exp(1) draw counting down as virtual
	// time passes. The exponential is memoryless, so on a rate change the
	// remainder simply re-stretches to the new mean; no fresh randomness
	// is needed. Negative means no gap has been drawn yet.
	unitsLeft float64
	armedAt   sim.Time
}

// NewPoisson creates a source firing fire at the given rate (events per
// second of virtual time), drawing its gaps from its own copy of rng. A
// non-positive rate yields a silent source that a later SetRate can
// start. The source starts immediately; the first event is one
// exponential gap away, making the process stationary from t=0.
func NewPoisson(eng *sim.Engine, rng *sim.Rand, rate float64, fire func()) *Poisson {
	p := newSource(fire)
	p.restart(eng, rng, rate)
	return p
}

// newSource allocates a source around fire, not started.
func newSource(fire func()) *Poisson {
	p := &Poisson{fire: fire}
	p.firedFn = p.fired
	return p
}

// restart starts the source again as NewPoisson(eng, rng, rate, fire)
// would with its own callback, keeping its event record: the engine must
// have been reset since the source last armed (sim.Engine.Reset), or the
// source must be silent.
func (p *Poisson) restart(eng *sim.Engine, rng *sim.Rand, rate float64) {
	*p = Poisson{eng: eng, rng: *rng, fire: p.fire, firedFn: p.firedFn, unitsLeft: -1}
	if rate > 0 {
		p.rate = rate
		p.meanGap = 1000 / rate
		p.draw()
		p.arm()
	}
}

// draw samples the next inter-event gap, in mean-gap units.
func (p *Poisson) draw() { p.unitsLeft = p.rng.Exp(1) }

// arm schedules the in-flight gap's firing at the current rate. A gap so
// long that its absolute instant is unrepresentable (a rate of almost
// zero; sim.Millis saturates the conversion) is not scheduled at all —
// the source is silent until a SetRate shortens the remainder.
func (p *Poisson) arm() {
	now := p.eng.Now()
	p.armedAt = now
	gap := sim.Millis(p.unitsLeft * p.meanGap)
	if gap > math.MaxInt64-time.Duration(now) {
		p.armed = false
		return
	}
	p.eng.Rearm(&p.next, now.Add(gap), p.firedFn)
	p.armed = true
}

func (p *Poisson) fired() {
	p.armed = false
	p.unitsLeft = -1 // gap fully consumed
	p.fire()
	// fire may have silenced the source or — via SetRate — already armed
	// the next gap.
	if p.rate <= 0 || p.armed {
		return
	}
	p.draw()
	p.arm()
}

// SetRate changes the source's rate at the current instant. The gap in
// flight is deterministically rescaled: its remainder — again Exp(1) in
// mean-gap units, by memorylessness — re-stretches to the new mean, so no
// randomness is consumed and the stream of future draws is unchanged.
// A non-positive rate silences the source, keeping the remainder frozen;
// a later SetRate back to a positive rate resumes it. Setting the current
// rate is a no-op, bit for bit.
func (p *Poisson) SetRate(rate float64) {
	if rate < 0 {
		rate = 0
	}
	if rate == p.rate {
		return
	}
	if p.armed {
		// Consume the elapsed share of the in-flight gap.
		elapsedMs := p.eng.Now().Sub(p.armedAt).Seconds() * 1000
		p.unitsLeft -= elapsedMs / p.meanGap
		if p.unitsLeft < 0 {
			p.unitsLeft = 0
		}
		p.next.Cancel()
		p.armed = false
	}
	p.rate = rate
	if rate <= 0 {
		p.meanGap = 0 // silent; the remainder stays frozen for resumption
		return
	}
	p.meanGap = 1000 / rate
	if p.unitsLeft < 0 {
		p.draw()
	}
	p.arm()
}

// Spread starts one Poisson source per sender, each at rate
// total/nominal, and returns them in senders order. This is the paper's
// workload: the per-process rate is fixed by the nominal system size, so
// in the crash-steady scenarios crashed processes simply contribute
// nothing — the effective load drops, exactly as §7 describes.
func Spread(eng *sim.Engine, rng *sim.Rand, total float64, nominal int, senders []int, fire func(sender int)) []*Poisson {
	n := 0
	for _, s := range senders {
		n = max(n, s+1)
	}
	bySender := make([]*Poisson, n)
	SpreadInto(bySender, eng, rng, total, nominal, senders, fire)
	out := make([]*Poisson, len(senders))
	for i, s := range senders {
		out[i] = bySender[s]
	}
	return out
}

// SpreadInto is Spread over sources the caller keeps, indexed by sender:
// it starts bySender[s] for every sender s in senders order, restarting a
// source already there in place (its event record and callback kept) and
// building a missing one around fire(s). A caller that reuses bySender
// across runs on a reset engine passes the same fire each time and gets,
// run after run, the sources Spread would build.
func SpreadInto(bySender []*Poisson, eng *sim.Engine, rng *sim.Rand, total float64, nominal int, senders []int, fire func(sender int)) {
	perProcess := total / float64(nominal)
	for _, s := range senders {
		if bySender[s] == nil {
			s := s
			bySender[s] = newSource(func() { fire(s) })
		}
		bySender[s].restart(eng, rng.ForkN(s), perProcess)
	}
}
