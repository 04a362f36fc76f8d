package proto

import (
	"testing"
	"time"

	"repro/internal/fd"
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
