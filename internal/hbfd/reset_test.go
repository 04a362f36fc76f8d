package hbfd

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestResetMatchesWrap dirties a rig — p1 crashed and still suspected by
// both peers, every live wrapper's beat and check alarms pending — then
// resets the engine, the system, the probes and the wrappers, these to
// another tuning, and runs a script on it and on a fresh rig of that
// tuning. Both must see the same suspect and trust edges at the same
// instants, send the same heartbeats and count the same suspicions.
func TestResetMatchesWrap(t *testing.T) {
	const n = 3
	dirty := Config{Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond}
	tuning := Config{Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond}

	eng, sys, wrappers, probes := rig(n, dirty)
	sys.CrashAt(1, at(40))
	eng.RunUntil(at(125))
	if !probes[0].rt.Suspects(1) || !probes[2].rt.Suspects(1) {
		t.Fatal("dirty rig: the crashed p1 is not suspected by both peers")
	}
	if !wrappers[0].beatTimer.Pending() || !wrappers[0].checkTimer.Pending() {
		t.Fatal("dirty rig: p0's alarms are not pending")
	}
	eng.Reset()
	sys.Reset(netmodel.DefaultConfig(n), fd.QoS{}, sim.NewRand(1))
	for i, w := range wrappers {
		w.Reset(tuning)
		probes[i].edges = nil
	}
	sys.Start()

	// The script crashes p2 and restarts it: each peer suspects it and
	// trusts it again.
	script := func(eng *sim.Engine, sys *proto.System, wrappers []*Wrapper) {
		eng.Schedule(at(100), func() { sys.Crash(2) })
		eng.Schedule(at(200), func() {
			sys.Recover(2, nil)
			wrappers[2].Restart()
		})
		eng.RunUntil(at(400))
	}
	script(eng, sys, wrappers)
	freshEng, freshSys, freshWrappers, freshProbes := rig(n, tuning)
	script(freshEng, freshSys, freshWrappers)

	if got, want := sys.Net.Counters().Multicasts, freshSys.Net.Counters().Multicasts; got != want {
		t.Errorf("reset rig sent %d heartbeats, a fresh one %d", got, want)
	}
	for i := range probes {
		if !slices.Equal(probes[i].edges, freshProbes[i].edges) {
			t.Errorf("p%d edges after Reset: %+v\nfresh: %+v", i, probes[i].edges, freshProbes[i].edges)
		}
		gotTotal, gotWrong := wrappers[i].Suspicions()
		wantTotal, wantWrong := freshWrappers[i].Suspicions()
		if gotTotal != wantTotal || gotWrong != wantWrong {
			t.Errorf("p%d Suspicions() after Reset = (%d, %d), fresh (%d, %d)", i, gotTotal, gotWrong, wantTotal, wantWrong)
		}
	}
	if len(freshProbes[0].edges) == 0 {
		t.Fatal("the script raised no edge at p0")
	}
}
