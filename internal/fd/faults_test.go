package fd

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

func at(ms float64) sim.Time { return sim.Time(0).Add(sim.Millis(ms)) }

func TestSeverSuspectsAfterTD(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 3, QoS{TD: 10 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(at(5), func() { s.Sever(0, 2) })
	eng.RunUntil(at(100))
	if len(edges) != 1 {
		t.Fatalf("edges = %+v, want exactly one suspect edge", edges)
	}
	e := edges[0]
	if e.monitor != 0 || e.target != 2 || !e.suspect || e.at != at(15) {
		t.Fatalf("edge = %+v, want monitor 0 suspects 2 at 15ms", e)
	}
	if !s.Detector(0).Suspects(2) || s.Detector(2).Suspects(0) {
		t.Fatal("severing is directed: only the severed monitor suspects")
	}
}

func TestRestoreBeforeTDCancelsDetection(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{TD: 10 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(at(5), func() { s.Sever(0, 1) })
	eng.Schedule(at(9), func() { s.Restore(0, 1) })
	eng.RunUntil(at(100))
	if len(edges) != 0 {
		t.Fatalf("edges = %+v, want none: the sever healed before detection", edges)
	}
}

func TestRestoreFiresTrustEdge(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{}, sim.NewRand(1)) // TD = 0: suspect instantly
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(at(5), func() { s.Sever(0, 1) })
	eng.Schedule(at(20), func() { s.Restore(0, 1) })
	eng.RunUntil(at(100))
	if len(edges) != 2 {
		t.Fatalf("edges = %+v, want suspect then trust", edges)
	}
	if !edges[0].suspect || edges[0].at != at(5) {
		t.Fatalf("first edge = %+v, want suspect at 5ms", edges[0])
	}
	if edges[1].suspect || edges[1].at != at(20) {
		t.Fatalf("second edge = %+v, want trust at 20ms", edges[1])
	}
}

func TestSeveredSuspicionSurvivesMistakeEnd(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{TD: 50 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	// A scripted mistake raises suspicion at 0 for 10ms; the link severs
	// at 5ms. The mistake's trust edge must not clear the severed link's
	// suspicion.
	eng.Schedule(at(0), func() { s.InjectMistake(0, 1, 10*time.Millisecond) })
	eng.Schedule(at(5), func() { s.Sever(0, 1) })
	eng.RunUntil(at(200))
	if len(edges) != 1 || !edges[0].suspect {
		t.Fatalf("edges = %+v, want the initial suspect edge only", edges)
	}
	if !s.Detector(0).Suspects(1) {
		t.Fatal("suspicion dropped while the link is severed")
	}
}

// TestResever checks that a sever's detection belongs to its episode: a
// link severed, restored and severed again inside TD is detected TD after
// the last sever, not the first.
func TestResever(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{TD: 10 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(at(0), func() { s.Sever(0, 1) })
	eng.Schedule(at(3), func() { s.Restore(0, 1) })
	eng.Schedule(at(5), func() { s.Sever(0, 1) })
	eng.RunUntil(at(100))
	want := edge{monitor: 0, target: 1, suspect: true, at: at(15)}
	if len(edges) != 1 || edges[0] != want {
		t.Fatalf("edges = %+v, want only %+v", edges, want)
	}
}

// TestMistakeInCrashWindow is the crash counterpart of
// TestSeveredSuspicionSurvivesMistakeEnd: a mistake that ends before the
// crash is detected ends with its trust edge, and detection suspects
// again.
func TestMistakeInCrashWindow(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{TD: 10 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(at(0), func() {
		s.Crash(1)
		s.InjectMistake(0, 1, 5*time.Millisecond)
	})
	eng.RunUntil(at(100))
	want := []edge{
		{monitor: 0, target: 1, suspect: true, at: at(0)},
		{monitor: 0, target: 1, suspect: false, at: at(5)},
		{monitor: 0, target: 1, suspect: true, at: at(10)},
	}
	if !slices.Equal(edges, want) {
		t.Fatalf("edges = %+v, want %+v", edges, want)
	}
	if !s.Detector(0).Suspects(1) {
		t.Fatal("crash detection did not suspect")
	}
}

func TestRecoverWithdrawsCrashSuspicion(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 3, QoS{TD: 10 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(at(0), func() { s.Crash(2) })
	eng.Schedule(at(50), func() { s.Recover(2) })
	eng.RunUntil(at(200))
	// Suspect edges at 10ms from monitors 0 and 1, trust edges at 50ms in
	// ascending monitor order.
	if len(edges) != 4 {
		t.Fatalf("edges = %+v, want 2 suspects + 2 trusts", edges)
	}
	for i, want := range []edge{
		{monitor: 0, target: 2, suspect: true, at: at(10)},
		{monitor: 1, target: 2, suspect: true, at: at(10)},
		{monitor: 0, target: 2, suspect: false, at: at(50)},
		{monitor: 1, target: 2, suspect: false, at: at(50)},
	} {
		if edges[i] != want {
			t.Fatalf("edge %d = %+v, want %+v", i, edges[i], want)
		}
	}
	if s.Detector(0).Suspects(2) || s.Detector(1).Suspects(2) {
		t.Fatal("recovered process still suspected")
	}
}

func TestRecoverBeforeTDInvalidatesDetection(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{TD: 20 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(at(0), func() { s.Crash(1) })
	eng.Schedule(at(10), func() { s.Recover(1) })
	eng.RunUntil(at(100))
	if len(edges) != 0 {
		t.Fatalf("edges = %+v, want none: the crash was reversed before detection", edges)
	}
	if s.Detector(0).Suspects(1) {
		t.Fatal("reversed crash still detected")
	}
}

func TestRecrashAfterRecoverDetectsAgain(t *testing.T) {
	eng := sim.New()
	s := NewSim(eng, 2, QoS{TD: 10 * time.Millisecond}, sim.NewRand(1))
	var edges []edge
	record(eng, s, &edges)
	eng.Schedule(at(0), func() { s.Crash(1) })
	eng.Schedule(at(30), func() { s.Recover(1) })
	eng.Schedule(at(40), func() { s.Crash(1) })
	eng.RunUntil(at(200))
	want := []edge{
		{monitor: 0, target: 1, suspect: true, at: at(10)},
		{monitor: 0, target: 1, suspect: false, at: at(30)},
		{monitor: 0, target: 1, suspect: true, at: at(50)},
	}
	if len(edges) != len(want) {
		t.Fatalf("edges = %+v, want %+v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, edges[i], want[i])
		}
	}
}
