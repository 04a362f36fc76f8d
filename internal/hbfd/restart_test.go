package hbfd

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func beatAt(ms int) sim.Time { return sim.Time(0).Add(time.Duration(ms) * time.Millisecond) }

// TestRestartResumesHeartbeats crashes a wrapped process long enough for
// its beat loop to die, recovers it, and checks that Restart makes it
// beat again so the peers' suspicion is withdrawn.
func TestRestartResumesHeartbeats(t *testing.T) {
	eng, sys, wrappers, probes := rig(2, Config{Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond})
	eng.Schedule(beatAt(55), func() { sys.Crash(1) })
	eng.Schedule(beatAt(200), func() {
		sys.Recover(1, nil)
		wrappers[1].Restart()
	})
	eng.RunUntil(beatAt(400))
	// p0 suspected p1 during the outage and trusted it again once
	// heartbeats resumed.
	var sawSuspect, sawTrust bool
	for _, e := range probes[0].edges {
		if e.p == 1 && e.kind == "suspect" {
			sawSuspect = true
		}
		if e.p == 1 && e.kind == "trust" && sawSuspect {
			sawTrust = true
		}
	}
	if !sawSuspect {
		t.Fatal("p0 never suspected the crashed p1")
	}
	if !sawTrust {
		t.Fatal("p0 never trusted the restarted p1 again")
	}
	if wrappers[0].Suspects(1) {
		t.Fatal("p1 still suspected after Restart")
	}
}

// TestRestartDoesNotDoubleArm recovers within the crash window in which
// the old beat loop is still pending, restarts, and checks the heartbeat
// rate stays one per interval (Restart cancels the pending timers before
// arming them again).
func TestRestartDoesNotDoubleArm(t *testing.T) {
	eng, sys, wrappers, _ := rig(2, Config{Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond})
	// Crash between two beats and recover before the next tick fires: the
	// old loop survives the window, so Restart must not add a second one.
	eng.Schedule(beatAt(52), func() { sys.Crash(1) })
	eng.Schedule(beatAt(54), func() {
		sys.Recover(1, nil)
		wrappers[1].Restart()
	})
	eng.RunUntil(beatAt(60))
	c0 := sys.Net.Counters().Multicasts
	eng.RunUntil(beatAt(160))
	sent := sys.Net.Counters().Multicasts - c0
	// Two processes beat every 10ms: ~20 beats expected in the 100ms
	// window; a double-armed p1 would push this toward 30.
	if sent < 18 || sent > 22 {
		t.Fatalf("multicasts in 100ms window = %d, want ~20 (no double-armed beat loop)", sent)
	}
}
