package repro

import (
	"testing"
	"time"

	"repro/internal/proto"
)

// TestGMRejoinBeyondTheLog recovers a GM process after the group has
// delivered more than the state-transfer log keeps: n=3 at 700/s, p2
// crashed at 1 s and recovered at 60 s, the load paused at 62 s. The
// recovered incarnation asks for every delivery from 0, and the welcomer's
// log no longer reaches back that far, so it is handed the log's window
// and the welcomer's delivered set (ROADMAP 3c, which used to panic). The
// deliveries before the window are a gap at p2; everything else holds.
func TestGMRejoinBeyondTheLog(t *testing.T) {
	var last [3]MessageID
	var count [3]int // p2's counts its recovered incarnation only
	c := NewCluster(ClusterConfig{
		Algorithm: GM, N: 3, QoS: Detectors(10, 0, 0), Throughput: 700,
		OnDeliver: func(d Delivery) {
			last[d.Process] = d.ID
			if d.Process != 2 || d.At >= 60*time.Second {
				count[d.Process]++
			}
		},
	})
	c.core.History = proto.NewHistory(3)
	c.CrashAt(2, time.Second)
	c.Apply(Recover{At: 60 * time.Second, P: 2})
	c.ApplyLoad(Pause{At: 62 * time.Second})
	c.Run(63 * time.Second)
	h := c.core.History
	if err := h.Check(proto.Order, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(proto.Prefix|proto.Agreement|proto.Validity, func(p proto.PID) bool { return p != 2 }); err != nil {
		t.Fatal(err)
	}
	if count[2] >= count[0] {
		t.Fatalf("p2's new incarnation delivered %d of %d: no gap, so the handoff was not exercised", count[2], count[0])
	}
	t.Logf("p2's new incarnation delivered %d of %d", count[2], count[0])
	if last[2] != last[0] {
		t.Fatalf("p2's last delivery is %v, p0's %v", last[2], last[0])
	}
}
