//go:build !race

// Allocation counts of the catch-up timers. The race detector instruments
// allocation itself, so the file is excluded under -race.
package ctabcast

import (
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/proto"
)

// TestResumeAllocs: Resume re-arms the process's one probe alarm, so on a
// warm process it allocates nothing, and a newer Resume cancels the probe
// in flight instead of leaving a stale firing queued behind it.
func TestResumeAllocs(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 10 * time.Millisecond}})
	for i := 0; i < 10; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(10*i)))
	}
	c.run(time.Second)
	p := c.procs[2]
	p.Resume() // makes the probe alarm
	allocs := testing.AllocsPerRun(100, p.Resume)
	if allocs > 0 {
		t.Fatalf("Resume on a warm process: %.2f allocs, budget 0", allocs)
	}
	if q := c.eng.Pending(); q != 1 {
		t.Fatalf("%d events queued after repeated Resume calls, want the one probe", q)
	}
}
