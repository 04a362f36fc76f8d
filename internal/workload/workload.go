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
type Poisson struct {
	eng     *sim.Engine
	rng     *sim.Rand
	rate    float64 // events per second of virtual time; <= 0 is silent
	meanGap float64 // milliseconds between events; 0 when rate <= 0
	fire    func()
	// firedFn is the method value p.fired, bound once: arm hands it to the
	// engine on every arrival, and binding it there would allocate each
	// time.
	firedFn func()
	next    *sim.Event
	// unitsLeft is the remainder of the inter-event gap in flight, in
	// units of the mean gap — an Exp(1) draw counting down as virtual
	// time passes. The exponential is memoryless, so on a rate change the
	// remainder simply re-stretches to the new mean; no fresh randomness
	// is needed. Negative means no gap has been drawn yet.
	unitsLeft float64
	armedAt   sim.Time
}

// NewPoisson creates a source firing at the given rate (events per second
// of virtual time). A non-positive rate yields a silent source that a
// later SetRate can start. The source starts immediately; the first event
// is one exponential gap away, making the process stationary from t=0.
func NewPoisson(eng *sim.Engine, rng *sim.Rand, rate float64, fire func()) *Poisson {
	p := &Poisson{eng: eng, rng: rng, fire: fire, unitsLeft: -1}
	p.firedFn = p.fired
	if rate > 0 {
		p.rate = rate
		p.meanGap = 1000 / rate
		p.draw()
		p.arm()
	}
	return p
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
		p.next = nil
		return
	}
	p.next = p.eng.After(gap, p.firedFn)
}

func (p *Poisson) fired() {
	p.next = nil
	p.unitsLeft = -1 // gap fully consumed
	p.fire()
	// fire may have silenced the source or — via SetRate — already armed
	// the next gap.
	if p.rate <= 0 || p.next != nil {
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
	if p.next != nil {
		// Consume the elapsed share of the in-flight gap.
		elapsedMs := p.eng.Now().Sub(p.armedAt).Seconds() * 1000
		p.unitsLeft -= elapsedMs / p.meanGap
		if p.unitsLeft < 0 {
			p.unitsLeft = 0
		}
		p.next.Cancel()
		p.next = nil
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
	perProcess := total / float64(nominal)
	out := make([]*Poisson, 0, len(senders))
	for _, s := range senders {
		s := s
		out = append(out, NewPoisson(eng, rng.ForkN(s), perProcess, func() { fire(s) }))
	}
	return out
}
