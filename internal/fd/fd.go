// Package fd models failure detectors by their quality of service, after
// Chen, Toueg and Aguilera ("On the quality of service of failure
// detectors", IEEE ToC 2002), exactly as the paper's Section 6.2 does.
//
// The system has n processes that monitor each other, so there are n(n−1)
// failure-detector modules, one per ordered pair (q monitors p). Each
// module is described by three QoS metrics:
//
//   - detection time TD: the time from p's crash until q suspects p
//     permanently (a constant, as in the paper);
//   - mistake recurrence time TMR: the time between two consecutive wrong
//     suspicions of a correct p (exponentially distributed);
//   - mistake duration TM: how long a wrong suspicion lasts (exponentially
//     distributed; a zero mean produces instantaneous mistakes whose
//     suspect and trust edges still fire, in order).
//
// All modules are independent and identically distributed — the paper's
// simplifying assumption, kept here deliberately so results are
// comparable. Consumers receive edge-triggered OnSuspect/OnTrust events
// and can poll the current suspicion state.
package fd

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// QoS holds the three failure-detector quality-of-service parameters.
// The zero value describes a perfect failure detector that never makes
// mistakes and detects crashes instantly.
type QoS struct {
	// TD is the crash detection time, a constant as in the paper.
	TD time.Duration
	// TMR is the mean mistake recurrence time. Zero disables wrong
	// suspicions entirely (the paper's normal-steady and crash-steady
	// scenarios).
	TMR time.Duration
	// TM is the mean mistake duration. Zero produces instantaneous
	// mistakes: the suspect and trust edges fire at the same virtual
	// instant, suspect first (the paper's Figure 6 sets TM = 0).
	TM time.Duration
}

// Validate rejects negative parameters.
func (q QoS) Validate() error {
	if q.TD < 0 || q.TMR < 0 || q.TM < 0 {
		return fmt.Errorf("fd: negative QoS parameter: %+v", q)
	}
	return nil
}

// Listener receives edge-triggered suspicion changes from the failure
// detector of one monitoring process.
type Listener interface {
	// OnSuspect fires when the detector starts suspecting p.
	OnSuspect(p int)
	// OnTrust fires when the detector stops suspecting a correct p.
	OnTrust(p int)
}

// Detector is the collection of failure-detector modules at one process:
// it monitors every other process. Obtain detectors from a Sim.
type Detector struct {
	suspects []bool
	listener Listener
}

// Suspects reports whether the detector currently suspects p. A process
// never suspects itself.
func (d *Detector) Suspects(p int) bool { return d.suspects[p] }

// SetListener installs the consumer of suspicion edges. Passing nil
// removes it. Only one listener is supported; the protocol runtime fans
// events out to its layers.
func (d *Detector) SetListener(l Listener) { d.listener = l }

func (d *Detector) setSuspect(p int, suspected bool) {
	if d.suspects[p] == suspected {
		return
	}
	d.suspects[p] = suspected
	if d.listener == nil {
		return
	}
	if suspected {
		d.listener.OnSuspect(p)
	} else {
		d.listener.OnTrust(p)
	}
}

// pairState tracks the mistake process of one (monitor, target) module.
type pairState struct {
	rng           sim.Rand
	crashDetected bool // target's crash has been detected: suspicion is permanent
	// severed marks the directed link broken by a network partition: the
	// monitor suspects the target like a crash, but reversibly — Restore
	// (a heal) withdraws the suspicion. severEpoch invalidates detection
	// callbacks of earlier sever episodes.
	severed    bool
	severEpoch uint64
}

// Sim drives the failure detectors of all n processes according to a
// common QoS parameterisation.
//
// Every table has one backing array (pairs and the detectors' suspicion
// rows are n×n, indexed monitor-major), so building a Sim costs a handful
// of allocations at any n. The stochastic mistake timers are typed engine
// records with the Sim as their handler (HandleMsg), so a running mistake
// process allocates nothing.
type Sim struct {
	eng       *sim.Engine
	n         int
	qos       QoS
	detectors []Detector
	pairs     []pairState // [monitor*n + target]
	crashed   []bool
	// crashEpoch invalidates the pending detection callbacks of a crash
	// that was reversed by Recover before its TD elapsed.
	crashEpoch []uint64
	quiesced   bool
}

// StopMistakes permanently silences the stochastic wrong-suspicion
// processes from the current instant on (in-progress mistakes still end
// with their trust edge). Tests and experiments use it to give runs a
// quiescent tail in which liveness can be asserted.
func (s *Sim) StopMistakes() { s.quiesced = true }

// NewSim creates the failure-detector simulation. rng seeds one
// independent stream per ordered process pair. The mistake processes (if
// TMR > 0) start immediately.
func NewSim(eng *sim.Engine, n int, qos QoS, rng *sim.Rand) *Sim {
	if err := qos.Validate(); err != nil {
		panic(err)
	}
	if n < 1 {
		panic(fmt.Sprintf("fd: n = %d, need at least 1", n))
	}
	s := &Sim{
		eng:        eng,
		n:          n,
		qos:        qos,
		detectors:  make([]Detector, n),
		pairs:      make([]pairState, n*n),
		crashed:    make([]bool, n),
		crashEpoch: make([]uint64, n),
	}
	suspects := make([]bool, n*n)
	for q := 0; q < n; q++ {
		row := suspects[q*n : (q+1)*n : (q+1)*n]
		s.detectors[q] = Detector{suspects: row}
		for p := 0; p < n; p++ {
			if p != q {
				s.pair(q, p).rng = *rng.ForkN(q*n + p)
			}
		}
	}
	if qos.TMR > 0 {
		for q := 0; q < n; q++ {
			for p := 0; p < n; p++ {
				if p != q {
					s.scheduleNextMistake(q, p)
				}
			}
		}
	}
	return s
}

// N returns the number of processes.
func (s *Sim) N() int { return s.n }

// Detector returns the failure detector owned by process q.
func (s *Sim) Detector(q int) *Detector { return &s.detectors[q] }

// pair returns the module in which q monitors p.
func (s *Sim) pair(q, p int) *pairState { return &s.pairs[q*s.n+p] }

// Crash records that p crashed at the current instant. Every other
// process starts suspecting p permanently TD later (if it does not
// already suspect it, the edge fires then). Crashing twice is a no-op.
func (s *Sim) Crash(p int) {
	if s.crashed[p] {
		return
	}
	s.crashed[p] = true
	epoch := s.crashEpoch[p]
	for q := 0; q < s.n; q++ {
		if q == p {
			continue
		}
		q := q
		s.eng.After(s.qos.TD, func() {
			if s.crashEpoch[p] != epoch {
				return // the crash was reversed by Recover before TD elapsed
			}
			s.pair(q, p).crashDetected = true
			s.detectors[q].setSuspect(p, true)
		})
	}
}

// Recover reverses Crash: p is alive again as of the current instant.
// Pending detections of the reversed crash are invalidated, the permanent
// suspicion is withdrawn (trust edges fire in ascending monitor order,
// except on links currently severed by a partition) and the stochastic
// mistake processes resume. Recovering a live process is a no-op.
func (s *Sim) Recover(p int) {
	if !s.crashed[p] {
		return
	}
	s.crashed[p] = false
	s.crashEpoch[p]++
	for q := 0; q < s.n; q++ {
		if q == p {
			continue
		}
		st := s.pair(q, p)
		st.crashDetected = false
		if !st.severed {
			s.detectors[q].setSuspect(p, false)
		}
	}
}

// Sever marks the directed link (monitor q, target p) broken by a network
// partition: q starts suspecting p TD later, exactly like a crash, but
// reversibly — Restore withdraws the suspicion. Severing a severed link
// is a no-op.
func (s *Sim) Sever(q, p int) {
	if q == p {
		return
	}
	st := s.pair(q, p)
	if st.severed {
		return
	}
	st.severed = true
	epoch := st.severEpoch
	s.eng.After(s.qos.TD, func() {
		if !st.severed || st.severEpoch != epoch {
			return // healed before the detection time elapsed
		}
		s.detectors[q].setSuspect(p, true)
	})
}

// Restore heals a severed link: unless p's crash has been detected, q
// trusts p again at the current instant (an in-progress stochastic
// mistake of the pair ends with it). Restoring an intact link is a no-op.
func (s *Sim) Restore(q, p int) {
	if q == p {
		return
	}
	st := s.pair(q, p)
	if !st.severed {
		return
	}
	st.severed = false
	st.severEpoch++
	if !st.crashDetected {
		s.detectors[q].setSuspect(p, false)
	}
}

// PreSuspect establishes the crash-steady initial condition for p: the
// crash happened long before the experiment, so every detector suspects p
// permanently from time zero, without firing any edge. The caller is
// responsible for also crashing p in the network model.
func (s *Sim) PreSuspect(p int) {
	s.crashed[p] = true
	for q := 0; q < s.n; q++ {
		if q == p {
			continue
		}
		s.pair(q, p).crashDetected = true
		s.detectors[q].suspects[p] = true
	}
}

// InjectMistake forces monitor q to wrongly suspect p for the given
// duration, independent of the stochastic mistake process. It is the hook
// examples and tests use to script suspicion scenarios.
func (s *Sim) InjectMistake(q, p int, duration time.Duration) {
	if q == p {
		return
	}
	s.beginMistake(q, p, duration)
}

// Opcodes of the mistake timers, the Sim's typed engine records: a is the
// monitor q, b the target p.
const (
	opMistake uint8 = iota // the next wrong suspicion of (q, p) is due
	opTrust                // a wrong suspicion of (q, p) ends
)

// HandleMsg implements sim.MsgHandler for the mistake timers.
func (s *Sim) HandleMsg(op uint8, q, p int, _ any) {
	st := s.pair(q, p)
	switch op {
	case opMistake:
		if s.quiesced {
			return
		}
		if !st.crashDetected {
			dur := sim.Millis(st.rng.Exp(float64(s.qos.TM) / float64(time.Millisecond)))
			s.beginMistake(q, p, dur)
		}
		s.scheduleNextMistake(q, p)
	case opTrust:
		if !st.crashDetected && !st.severed {
			s.detectors[q].setSuspect(p, false)
		}
	}
}

// scheduleNextMistake arms the next wrong suspicion of the (q, p) module:
// mistake starts are spaced Exp(TMR) apart.
func (s *Sim) scheduleNextMistake(q, p int) {
	gap := sim.Millis(s.pair(q, p).rng.Exp(float64(s.qos.TMR) / float64(time.Millisecond)))
	s.eng.AfterMsg(gap, s, opMistake, q, p, nil)
}

// beginMistake raises the suspicion edge and schedules the trust edge
// after the mistake duration. If the module is already suspecting p the
// mistake merges into the current one (no duplicate edge; the earlier
// trust edge still applies).
func (s *Sim) beginMistake(q, p int, duration time.Duration) {
	if s.pair(q, p).crashDetected || s.detectors[q].suspects[p] {
		return
	}
	s.detectors[q].setSuspect(p, true)
	s.eng.AfterMsg(duration, s, opTrust, q, p, nil)
}
