package proto

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

func TestRecoverResumesHandler(t *testing.T) {
	sys, handlers := build(2, fd.QoS{})
	sys.Start()
	eng := sys.Eng
	eng.Schedule(sim.Time(0).Add(5*time.Millisecond), func() { sys.Crash(1) })
	eng.Schedule(sim.Time(0).Add(10*time.Millisecond), func() { sys.Proc(0).Send(1, "dropped") })
	eng.Schedule(sim.Time(0).Add(30*time.Millisecond), func() {
		sys.Recover(1, nil)
		sys.Proc(0).Send(1, "resumed")
	})
	eng.Run()
	h := handlers[1]
	if h.count("msg") != 1 || h.events[len(h.events)-1].payload != "resumed" {
		t.Fatalf("resumed handler events = %+v, want exactly the post-recovery message", h.events)
	}
	if h.count("init") != 1 {
		t.Fatalf("resume ran Init %d times, want 1 (the original)", h.count("init"))
	}
	if sys.Proc(1).Crashed() {
		t.Fatal("process still crashed after Recover")
	}
}

func TestRecoverRemakeReplacesHandlerAndInits(t *testing.T) {
	sys, handlers := build(2, fd.QoS{})
	sys.Start()
	eng := sys.Eng
	var fresh *testHandler
	eng.Schedule(sim.Time(0).Add(5*time.Millisecond), func() { sys.Crash(1) })
	eng.Schedule(sim.Time(0).Add(30*time.Millisecond), func() {
		sys.Recover(1, func(rt Runtime) Handler {
			fresh = &testHandler{rt: rt}
			return fresh
		})
		sys.Proc(0).Send(1, "hello-new")
	})
	eng.Run()
	if fresh == nil {
		t.Fatal("remake never ran")
	}
	if fresh.count("init") != 1 {
		t.Fatalf("fresh incarnation Init ran %d times, want 1", fresh.count("init"))
	}
	if fresh.count("msg") != 1 || fresh.events[len(fresh.events)-1].payload != "hello-new" {
		t.Fatalf("fresh incarnation events = %+v", fresh.events)
	}
	if got := handlers[1].count("msg"); got != 0 {
		t.Fatalf("old incarnation received %d messages after replacement", got)
	}
}

func TestRecoverRemakeStrandsOldTimers(t *testing.T) {
	for _, kind := range timerKinds {
		t.Run(kind.name, func(t *testing.T) {
			sys, _ := build(1, fd.QoS{})
			sys.Start()
			eng := sys.Eng
			oldFired, newFired := 0, 0
			// A timer of the first incarnation, due after the recovery.
			kind.arm(sys.Proc(0), 50*time.Millisecond, func() { oldFired++ })
			eng.Schedule(sim.Time(0).Add(10*time.Millisecond), func() { sys.Crash(0) })
			eng.Schedule(sim.Time(0).Add(20*time.Millisecond), func() {
				sys.Recover(0, func(rt Runtime) Handler {
					kind.arm(rt, 50*time.Millisecond, func() { newFired++ })
					return &testHandler{rt: rt}
				})
			})
			eng.Run()
			if oldFired != 0 {
				t.Fatal("a previous incarnation's timer fired after the handler was replaced")
			}
			if newFired != 1 {
				t.Fatalf("new incarnation's timer fired %d times, want 1", newFired)
			}
		})
	}
}

func TestPartitionSeversDetectorsAndHealRestores(t *testing.T) {
	sys, handlers := build(4, fd.QoS{TD: 10 * time.Millisecond})
	sys.Start()
	eng := sys.Eng
	eng.Schedule(sim.Time(0).Add(5*time.Millisecond), func() {
		sys.Partition([][]PID{{0, 1}, {2, 3}})
	})
	eng.Schedule(sim.Time(0).Add(50*time.Millisecond), func() { sys.Heal() })
	eng.RunUntil(sim.Time(0).Add(200 * time.Millisecond))
	h0 := handlers[0]
	// p0 suspects p2 and p3 at 15ms, trusts them again at 50ms; p1 stays
	// trusted throughout.
	suspects, trusts := 0, 0
	for _, e := range h0.events {
		switch e.kind {
		case "suspect":
			suspects++
			if e.from == 1 {
				t.Fatalf("p0 suspected same-group p1: %+v", e)
			}
		case "trust":
			trusts++
		}
	}
	if suspects != 2 || trusts != 2 {
		t.Fatalf("p0 saw %d suspects / %d trusts, want 2/2; events %+v", suspects, trusts, h0.events)
	}
	if sys.Proc(0).Suspects(2) || sys.Proc(0).Suspects(3) {
		t.Fatal("suspicions not withdrawn after Heal")
	}
}

func TestPartitionDropsCrossGroupMessages(t *testing.T) {
	sys, handlers := build(3, fd.QoS{})
	sys.Start()
	eng := sys.Eng
	eng.Schedule(sim.Time(0).Add(1*time.Millisecond), func() {
		sys.Partition([][]PID{{0, 1}, {2}})
		sys.Proc(0).Multicast("during")
	})
	eng.Schedule(sim.Time(0).Add(20*time.Millisecond), func() {
		sys.Heal()
		sys.Proc(0).Multicast("after")
	})
	eng.Run()
	if got := handlers[1].count("msg"); got != 2 {
		t.Fatalf("same-group p1 received %d messages, want 2", got)
	}
	if got := handlers[2].count("msg"); got != 1 {
		t.Fatalf("cross-group p2 received %d messages, want 1 (post-heal only)", got)
	}
}

func TestRepartitionAdjustsSeveredPairs(t *testing.T) {
	sys, _ := build(3, fd.QoS{})
	sys.Start()
	eng := sys.Eng
	eng.Schedule(sim.Time(0).Add(1*time.Millisecond), func() {
		sys.Partition([][]PID{{0, 1}, {2}})
	})
	eng.Schedule(sim.Time(0).Add(10*time.Millisecond), func() {
		// The split moves: p1 now isolated, p2 back with p0.
		sys.Partition([][]PID{{0, 2}, {1}})
	})
	eng.RunUntil(sim.Time(0).Add(50 * time.Millisecond))
	if sys.Proc(0).Suspects(2) {
		t.Fatal("p2 rejoined p0's side but is still suspected")
	}
	if !sys.Proc(0).Suspects(1) {
		t.Fatal("p1 moved across the split but is not suspected")
	}
}

// TestCrashGuards checks System's crash guards, the only ones: fd.Sim's
// Crash and Recover expect a live and a crashed process. A second Crash
// schedules no second detection, so every monitor sees one suspect edge;
// a Recover of a live process leaves an in-progress mistake running.
func TestCrashGuards(t *testing.T) {
	sys, handlers := build(3, fd.QoS{TD: 10 * time.Millisecond})
	sys.Start()
	eng := sys.Eng
	eng.Schedule(0, func() {
		sys.Crash(2)
		pending := eng.Pending()
		sys.Crash(2)
		if eng.Pending() != pending {
			t.Errorf("a second Crash scheduled %d events", eng.Pending()-pending)
		}
		sys.FDs.InjectMistake(0, 1, 20*time.Millisecond)
	})
	eng.Schedule(sim.Time(0).Add(5*time.Millisecond), func() { sys.Recover(1, nil) })
	eng.RunUntil(sim.Time(0).Add(100 * time.Millisecond))
	for q := 0; q < 2; q++ {
		if got := handlers[q].count("suspect"); got != 2-q {
			t.Errorf("p%d saw %d suspect edges, want %d; events %+v", q, got, 2-q, handlers[q].events)
		}
	}
	for _, e := range handlers[0].events {
		if e.kind == "trust" && (e.from != 1 || e.at != sim.Time(0).Add(20*time.Millisecond)) {
			t.Errorf("p0 trust edge %+v, want only p1's at the mistake's end (20ms)", e)
		}
	}
	if handlers[0].count("trust") != 1 {
		t.Errorf("p0 events %+v, want one trust edge", handlers[0].events)
	}
}

// fenceEdge is one failure-detector edge a process's handler saw.
type fenceEdge struct {
	at              sim.Time
	monitor, target int
	suspect         bool
}

// edgeLog is a handler that records its process's detector edges into a
// log shared by every process and incarnation.
type edgeLog struct {
	rt  Runtime
	log *[]fenceEdge
}

func (h *edgeLog) Init()              {}
func (h *edgeLog) OnMessage(PID, any) {}
func (h *edgeLog) OnSuspect(p PID)    { h.add(p, true) }
func (h *edgeLog) OnTrust(p PID)      { h.add(p, false) }
func (h *edgeLog) add(p PID, suspect bool) {
	*h.log = append(*h.log, fenceEdge{h.rt.Now(), int(h.rt.ID()), int(p), suspect})
}

// labelRef is a second, independent account of detector severing: it
// keeps its own group label per process (-(p+1) for a process listed in
// no group, nil when the network is whole) and, on every Partition and
// Heal, diffs the old and new labels to sever and restore the directed
// links whose crossing changed, in ascending (monitor, target) order. It
// drives detectors of its own on an engine of its own, with the stream
// System's detectors fork, and keeps the edges a live handler would see.
type labelRef struct {
	eng     *sim.Engine
	fds     *fd.Sim
	label   []int
	crashed []bool
	log     []fenceEdge
}

func newLabelRef(n int, qos fd.QoS, seed uint64) *labelRef {
	r := &labelRef{eng: sim.New(), crashed: make([]bool, n)}
	r.fds = fd.NewSim(r.eng, n, qos, sim.NewRand(seed).Fork("fd"))
	for q := 0; q < n; q++ {
		r.fds.Detector(q).SetListener(refListener{r, q})
	}
	return r
}

type refListener struct {
	r *labelRef
	q int
}

func (l refListener) OnSuspect(p int) { l.r.edge(l.q, p, true) }
func (l refListener) OnTrust(p int)   { l.r.edge(l.q, p, false) }

func (r *labelRef) edge(q, p int, suspect bool) {
	if !r.crashed[q] {
		r.log = append(r.log, fenceEdge{r.eng.Now(), q, p, suspect})
	}
}

func (r *labelRef) crash(p int) {
	if !r.crashed[p] {
		r.crashed[p] = true
		r.fds.Crash(p)
	}
}

func (r *labelRef) recover(p int) {
	if r.crashed[p] {
		r.fds.Recover(p)
		r.crashed[p] = false
	}
}

func (r *labelRef) partition(groups [][]PID) {
	n := len(r.crashed)
	label := make([]int, n)
	for p := range label {
		label[p] = -(p + 1)
	}
	for gi, g := range groups {
		for _, p := range g {
			label[p] = gi
		}
	}
	r.relabel(label)
}

func (r *labelRef) relabel(label []int) {
	n := len(r.crashed)
	cross := func(lab []int, q, p int) bool { return lab != nil && lab[q] != lab[p] }
	for q := 0; q < n; q++ {
		for p := 0; p < n; p++ {
			if p == q {
				continue
			}
			was, now := cross(r.label, q, p), cross(label, q, p)
			switch {
			case now && !was:
				r.fds.Sever(q, p)
			case was && !now:
				r.fds.Restore(q, p)
			}
		}
	}
	r.label = label
}

// randomGroups splits 0..n-1 into up to three groups, leaving some
// processes unlisted (isolated singletons) and some groups empty.
func randomGroups(rng *sim.Rand, n int) [][]PID {
	groups := make([][]PID, 1+rng.Intn(3))
	for p := 0; p < n; p++ {
		if g := rng.Intn(len(groups) + 1); g < len(groups) {
			groups[g] = append(groups[g], PID(p))
		}
	}
	return groups
}

// TestPartitionMatchesLabelDiff fences System's fault routing, which reads
// reachability from the network, against labelRef: over seeded scripts of Partition (new
// splits, re-partitions, unlisted singletons), Heal, Crash and Recover
// (resumed and remade) at random instants, with TD > 0 and sometimes
// stochastic mistakes, every detector edge a handler sees — instant,
// monitor, target, direction — and every Suspects(q, p) must match after
// every step.
func TestPartitionMatchesLabelDiff(t *testing.T) {
	scripts, edges := 0, 0
	for _, n := range []int{3, 5, 7} {
		for seed := uint64(1); seed <= 70; seed++ {
			scripts++
			rng := sim.NewRand(seed*1000 + uint64(n))
			qos := fd.QoS{TD: time.Duration(1+rng.Intn(8)) * time.Millisecond}
			if rng.Intn(3) == 0 {
				qos.TMR = time.Duration(20+rng.Intn(40)) * time.Millisecond
				qos.TM = time.Duration(rng.Intn(5)) * time.Millisecond
			}
			ref := newLabelRef(n, qos, seed)
			sys := NewSystem(sim.New(), netmodel.DefaultConfig(n), qos, sim.NewRand(seed))
			var log []fenceEdge
			for p := 0; p < n; p++ {
				sys.SetHandler(PID(p), &edgeLog{rt: sys.Proc(PID(p)), log: &log})
			}
			sys.Start()
			at := sim.Time(0)
			for step := 0; step < 40; step++ {
				if rng.Intn(4) != 0 {
					at = at.Add(time.Duration(rng.Intn(12)) * time.Millisecond)
				}
				sys.Eng.RunUntil(at)
				ref.eng.RunUntil(at)
				p := rng.Intn(n)
				var what string
				switch k := rng.Intn(10); {
				case k < 4:
					groups := randomGroups(rng, n)
					what = fmt.Sprintf("Partition(%v)", groups)
					sys.Partition(groups)
					ref.partition(groups)
				case k < 6:
					what = "Heal()"
					sys.Heal()
					ref.relabel(nil)
				case k < 8:
					what = fmt.Sprintf("Crash(%d)", p)
					sys.Crash(PID(p))
					ref.crash(p)
				default:
					what = fmt.Sprintf("Recover(%d)", p)
					var remake func(Runtime) Handler
					if rng.Intn(2) == 0 {
						remake = func(rt Runtime) Handler { return &edgeLog{rt: rt, log: &log} }
					}
					sys.Recover(PID(p), remake)
					ref.recover(p)
				}
				if !slices.Equal(log, ref.log) {
					t.Fatalf("n=%d seed=%d step %d %s at %v: System edges\n%v\nlabel-diff edges\n%v", n, seed, step, what, at, log, ref.log)
				}
				for q := 0; q < n; q++ {
					for p := 0; p < n; p++ {
						if got, want := sys.Proc(PID(q)).Suspects(PID(p)), ref.fds.Detector(q).Suspects(p); got != want {
							t.Fatalf("n=%d seed=%d step %d %s at %v: Suspects(%d, %d) = %v, label-diff %v", n, seed, step, what, at, q, p, got, want)
						}
					}
				}
			}
			edges += len(log)
		}
	}
	if scripts < 200 || edges == 0 {
		t.Fatalf("ran %d scripts with %d edges, want at least 200 scripts and some edges", scripts, edges)
	}
}

// A partition the network rejects changes no detector link: netmodel
// refuses it before System severs or restores anything, so neither a
// first split nor a re-partition is half-applied.
func TestRejectedPartitionLeavesDetectors(t *testing.T) {
	rejected := func(sys *System, groups [][]PID) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("Partition(%v) did not panic", groups)
			}
		}()
		sys.Partition(groups)
	}
	suspects := func(sys *System) [][]bool {
		out := make([][]bool, sys.N())
		for q := range out {
			for p := 0; p < sys.N(); p++ {
				out[q] = append(out[q], sys.Proc(PID(q)).Suspects(PID(p)))
			}
		}
		return out
	}
	ms := func(d int) sim.Time { return sim.Time(0).Add(time.Duration(d) * time.Millisecond) }

	sys, _ := build(3, fd.QoS{TD: 5 * time.Millisecond})
	sys.Start()
	rejected(sys, [][]PID{{0, 1}, {1, 2}})
	sys.Eng.RunUntil(ms(50))
	want := [][]bool{{false, false, false}, {false, false, false}, {false, false, false}}
	if got := suspects(sys); !slices.EqualFunc(got, want, slices.Equal[[]bool]) {
		t.Fatalf("after a rejected first partition, suspicions %v; want none", got)
	}

	// A rejected re-partition keeps the split before it: p2 stays cut
	// off, and its suspicions arrive TD after the valid split.
	sys, _ = build(3, fd.QoS{TD: 5 * time.Millisecond})
	sys.Start()
	sys.Partition([][]PID{{0, 1}, {2}})
	rejected(sys, [][]PID{{0}, {0, 1, 2}})
	sys.Eng.RunUntil(ms(50))
	want = [][]bool{{false, false, true}, {false, false, true}, {true, true, false}}
	if got := suspects(sys); !slices.EqualFunc(got, want, slices.Equal[[]bool]) {
		t.Fatalf("after a rejected re-partition, suspicions %v; want %v", got, want)
	}
}
