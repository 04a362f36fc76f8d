package fd

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

// edge records one suspicion transition for assertions.
type edge struct {
	monitor int
	target  int
	suspect bool
	at      sim.Time
}

// recorder collects suspicion edges from one detector.
type recorder struct {
	eng     *sim.Engine
	monitor int
	edges   *[]edge
}

func (r recorder) OnSuspect(p int) {
	*r.edges = append(*r.edges, edge{monitor: r.monitor, target: p, suspect: true, at: r.eng.Now()})
}

func (r recorder) OnTrust(p int) {
	*r.edges = append(*r.edges, edge{monitor: r.monitor, target: p, suspect: false, at: r.eng.Now()})
}

func record(eng *sim.Engine, s *Sim, edges *[]edge) {
	for q := 0; q < s.N(); q++ {
		s.Detector(q).SetListener(recorder{eng: eng, monitor: q, edges: edges})
	}
}

func TestNoSuspicionsByDefault(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 4, QoS{}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.RunUntil(sim.Time(0).Add(10 * time.Second))
	if len(edges) != 0 {
		t.Fatalf("perfect detector produced %d edges", len(edges))
	}
	for q := 0; q < 4; q++ {
		for p := 0; p < 4; p++ {
			if s.Detector(q).Suspects(p) {
				t.Fatalf("detector %d suspects %d with no crashes", q, p)
			}
		}
	}
}

func TestCrashDetectionAfterTD(t *testing.T) {
	eng := sim.New()
	td := 25 * time.Millisecond
	s := NewSim(eng, 3, QoS{TD: td}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	crashAt := sim.Time(0).Add(40 * time.Millisecond)
	eng.Schedule(crashAt, func() { s.Crash(2) })
	eng.RunUntil(sim.Time(0).Add(time.Second))
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want 2 (p0 and p1 suspect p2)", len(edges))
	}
	want := crashAt.Add(td)
	for _, e := range edges {
		if !e.suspect || e.target != 2 {
			t.Fatalf("unexpected edge %+v", e)
		}
		if e.at != want {
			t.Fatalf("suspicion at %v, want %v", e.at, want)
		}
	}
	if !s.Detector(0).Suspects(2) || !s.Detector(1).Suspects(2) {
		t.Fatal("detectors do not suspect the crashed process")
	}
	if s.Detector(2).Suspects(2) {
		t.Fatal("process suspects itself")
	}
}

func TestPermanentSuspicionSurvivesMistakeEnd(t *testing.T) {
	// A mistake is in progress when the crash is detected; the trust edge
	// that would end the mistake must not fire.
	eng := sim.New()
	s := NewSim(eng, 2, QoS{TD: 10 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(0, func() {
		s.InjectMistake(0, 1, 100*time.Millisecond) // would trust again at 100ms
		s.Crash(1)                                  // detected at 10ms -> permanent
	})
	eng.RunUntil(sim.Time(0).Add(time.Second))
	if !s.Detector(0).Suspects(1) {
		t.Fatal("suspicion not permanent after crash detection")
	}
	for _, e := range edges {
		if !e.suspect {
			t.Fatalf("trust edge fired after crash detection: %+v", e)
		}
	}
}

func TestPreSuspect(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 3, QoS{TD: time.Hour}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	s.PreSuspect(1)
	if !s.Detector(0).Suspects(1) || !s.Detector(2).Suspects(1) {
		t.Fatal("PreSuspect did not establish suspicion")
	}
	eng.RunUntil(sim.Time(0).Add(time.Second))
	if len(edges) != 0 {
		t.Fatalf("PreSuspect fired %d edges, want none", len(edges))
	}
}

func TestInjectMistakeEdges(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	at := sim.Time(0).Add(5 * time.Millisecond)
	eng.Schedule(at, func() { s.InjectMistake(0, 1, 20*time.Millisecond) })
	eng.RunUntil(sim.Time(0).Add(time.Second))
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want suspect+trust", len(edges))
	}
	if !edges[0].suspect || edges[0].at != at {
		t.Fatalf("suspect edge = %+v", edges[0])
	}
	if edges[1].suspect || edges[1].at != at.Add(20*time.Millisecond) {
		t.Fatalf("trust edge = %+v", edges[1])
	}
	if s.Detector(0).Suspects(1) {
		t.Fatal("suspicion persists after mistake duration")
	}
}

func TestZeroDurationMistakeFiresBothEdgesInOrder(t *testing.T) {
	// TM = 0 in the paper's Figure 6: both edges fire at the same
	// instant, suspect strictly before trust.
	eng := sim.New()
	s := NewSim(eng, 2, QoS{}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	at := sim.Time(0).Add(time.Millisecond)
	eng.Schedule(at, func() { s.InjectMistake(1, 0, 0) })
	eng.RunUntil(sim.Time(0).Add(time.Second))
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want 2", len(edges))
	}
	if !edges[0].suspect || edges[1].suspect {
		t.Fatalf("edge order = %+v, want suspect then trust", edges)
	}
	if edges[0].at != at || edges[1].at != at {
		t.Fatal("zero-duration mistake edges not at the same instant")
	}
}

func TestSelfMistakeIgnored(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{}, sim.NewRand(1))
	s.InjectMistake(1, 1, time.Second)
	if s.Detector(1).Suspects(1) {
		t.Fatal("process suspects itself")
	}
}

func TestOverlappingMistakesMerge(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(0, func() {
		s.InjectMistake(0, 1, 10*time.Millisecond)
		s.InjectMistake(0, 1, 50*time.Millisecond) // merged: no second suspect edge
	})
	eng.RunUntil(sim.Time(0).Add(time.Second))
	// One suspect edge; the first trust edge (at 10ms) ends the mistake.
	if len(edges) != 2 {
		t.Fatalf("got %d edges, want 2: %+v", len(edges), edges)
	}
	if edges[1].suspect || edges[1].at != sim.Time(0).Add(10*time.Millisecond) {
		t.Fatalf("trust edge = %+v, want at 10ms", edges[1])
	}
}

func TestMistakeRecurrenceStatistics(t *testing.T) {
	// With TMR = 100ms and TM = 0, one ordered pair should produce about
	// one mistake per 100ms of virtual time.
	eng := sim.New()
	qos := QoS{TMR: 100 * time.Millisecond}
	s := NewSim(eng, 2, qos, sim.NewRand(42))
	var edges []edge
	record(eng, s, &edges)
	horizon := 200 * time.Second
	eng.RunUntil(sim.Time(0).Add(horizon))
	suspects := 0
	for _, e := range edges {
		if e.suspect {
			suspects++
		}
	}
	// Two ordered pairs, each with rate 10/s over 200s => expect ~4000.
	want := 2.0 * horizon.Seconds() / qos.TMR.Seconds()
	got := float64(suspects)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("observed %v mistakes, want ~%v (±5%%)", got, want)
	}
}

func TestMistakeDurationStatistics(t *testing.T) {
	// With TM = 20ms, mean observed mistake duration should be ~20ms.
	eng := sim.New()
	qos := QoS{TMR: 100 * time.Millisecond, TM: 20 * time.Millisecond}
	s := NewSim(eng, 2, qos, sim.NewRand(7))
	var edges []edge
	record(eng, s, &edges)
	eng.RunUntil(sim.Time(0).Add(100 * time.Second))
	start := make(map[int]sim.Time) // by target (single monitor pair relevant per target)
	var durations []float64
	for _, e := range edges {
		key := e.monitor*10 + e.target
		if e.suspect {
			start[key] = e.at
		} else if st, ok := start[key]; ok {
			durations = append(durations, e.at.Sub(st).Seconds()*1000)
			delete(start, key)
		}
	}
	if len(durations) < 100 {
		t.Fatalf("only %d complete mistakes observed", len(durations))
	}
	sum := 0.0
	for _, d := range durations {
		sum += d
	}
	mean := sum / float64(len(durations))
	if math.Abs(mean-20) > 2.5 {
		t.Fatalf("mean mistake duration = %vms, want ~20ms", mean)
	}
}

func TestFractionOfTimeSuspected(t *testing.T) {
	// Long-run fraction of time wrongly suspected ≈ TM / (TMR + ...):
	// for a renewal process with Exp(TMR) spacing between starts and
	// Exp(TM) durations (merging overlaps), the fraction is
	// 1 - exp(-TM/TMR) in the M/G/inf-style approximation; for
	// TM << TMR it is close to TM/TMR. Use TM/TMR = 0.1 and allow slack.
	eng := sim.New()
	qos := QoS{TMR: 200 * time.Millisecond, TM: 20 * time.Millisecond}
	s := NewSim(eng, 2, qos, sim.NewRand(99))
	var suspectedTime time.Duration
	var lastChange sim.Time
	det := s.Detector(0)
	det.SetListener(listenerFuncs{
		suspect: func(p int) { lastChange = eng.Now() },
		trust: func(p int) {
			suspectedTime += eng.Now().Sub(lastChange)
		},
	})
	horizon := 400 * time.Second
	eng.RunUntil(sim.Time(0).Add(horizon))
	frac := suspectedTime.Seconds() / horizon.Seconds()
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("suspected fraction = %v, want ~0.1", frac)
	}
}

// listenerFuncs adapts two closures to the Listener interface.
type listenerFuncs struct {
	suspect func(int)
	trust   func(int)
}

func (l listenerFuncs) OnSuspect(p int) { l.suspect(p) }
func (l listenerFuncs) OnTrust(p int)   { l.trust(p) }

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []edge {
		eng := sim.New()
		s := NewSim(eng, 3, QoS{TMR: 50 * time.Millisecond, TM: 5 * time.Millisecond}, sim.NewRand(1234))
		var edges []edge
		record(eng, s, &edges)
		eng.RunUntil(sim.Time(0).Add(10 * time.Second))
		return edges
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in edge count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at edge %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInvalidQoSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative QoS did not panic")
		}
	}()
	NewSim(sim.New(), 2, QoS{TD: -time.Second}, sim.NewRand(1))
}

func TestInvalidNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 did not panic")
		}
	}()
	NewSim(sim.New(), 0, QoS{}, sim.NewRand(1))
}
