package seqabcast

import (
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
)

// TestSequencerCrashMidBatch crashes the sequencer between assigning a
// batch and the deliver announcement: the flush must carry the
// assignments so the survivors deliver them consistently.
func TestSequencerCrashMidBatch(t *testing.T) {
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}})
	// m broadcast at 40ms: data at sequencer at ~43, seqnum multicast
	// leaves ~44-46. Crash the sequencer at 46.5ms: after the seqnum hit
	// the wire, before any deliver message.
	c.broadcastAt(1, at(40))
	c.sys.CrashAt(0, at(46.5))
	c.run(2 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

// TestSequencerCrashAfterPartialDeliver crashes the sequencer right after
// it delivered locally (majority acks) but potentially before everyone
// processed the deliver announcement: uniform agreement must hold.
func TestSequencerCrashAfterPartialDeliver(t *testing.T) {
	td := 10 * time.Millisecond
	for _, crashMs := range []float64{47, 48, 49, 50, 51, 52} {
		c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}})
		c.broadcastAt(1, at(40))
		c.sys.CrashAt(0, at(crashMs))
		c.run(2 * time.Second)
		c.holds(t, proto.Prefix|proto.Agreement)
	}
}

// TestCascadingCrashes kills two processes one after the other at n=5;
// the view shrinks twice and everything keeps flowing.
func TestCascadingCrashes(t *testing.T) {
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 5, qos: fd.QoS{TD: td}})
	for i := 0; i < 40; i++ {
		c.broadcastAt(proto.PID(i%5), at(float64(10*i)))
	}
	c.sys.CrashAt(0, at(100)) // sequencer
	c.sys.CrashAt(1, at(200)) // its successor
	c.run(3 * time.Second)
	// All messages from correct senders must be everywhere.
	c.holds(t, proto.Prefix|proto.Agreement|proto.Validity)
	v := c.procs[2].View()
	if v.Contains(0) || v.Contains(1) {
		t.Fatalf("final view %v contains crashed members", v)
	}
	if v.Primary() != 2 {
		t.Fatalf("sequencer = %d, want 2", v.Primary())
	}
}

// TestCrashDuringViewChange crashes a second process while the view
// change for the first crash is still running.
func TestCrashDuringViewChange(t *testing.T) {
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 5, qos: fd.QoS{TD: td}})
	for i := 0; i < 20; i++ {
		c.broadcastAt(proto.PID(i%5), at(float64(5*i)))
	}
	c.sys.CrashAt(0, at(50))
	// Detection at 60ms starts the change; crash p1 at 62ms, mid-flush.
	c.sys.CrashAt(1, at(62))
	c.run(3 * time.Second)
	c.holds(t, proto.Prefix|proto.Agreement)
	v := c.procs[2].View()
	if v.Contains(0) || v.Contains(1) {
		t.Fatalf("final view %v contains crashed members", v)
	}
}

// TestSimultaneousWrongSuspicions has two processes wrongly suspecting
// each other at the same time — the exclusion targets race and the group
// must still converge on one view sequence.
func TestSimultaneousWrongSuspicions(t *testing.T) {
	c := newCluster(clusterOpts{n: 5})
	c.eng.Schedule(at(20), func() {
		c.sys.FDs.InjectMistake(1, 2, 60*time.Millisecond)
		c.sys.FDs.InjectMistake(2, 1, 60*time.Millisecond)
	})
	for i := 0; i < 30; i++ {
		c.broadcastAt(proto.PID(i%5), at(float64(10+4*i)))
	}
	c.run(3 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	// Everyone back in after the mistakes end.
	v := c.procs[0].View()
	if len(v.Members) != 5 {
		t.Fatalf("final view %v, want all 5 members back", v)
	}
}

// TestSuspicionOfSequencerMovesIt: a long wrong suspicion of the
// sequencer excludes it; the next member takes over sequencing; the old
// sequencer rejoins at the back of the view.
func TestSuspicionOfSequencerMovesIt(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	c.eng.Schedule(at(20), func() {
		c.sys.FDs.InjectMistake(1, 0, 100*time.Millisecond)
	})
	for i := 0; i < 20; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(10+8*i)))
	}
	c.run(3 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	v := c.procs[1].View()
	if len(v.Members) != 3 {
		t.Fatalf("final view %v, want 3 members", v)
	}
	if v.Primary() != 1 {
		t.Fatalf("sequencer = %d, want 1 (p0 rejoined at the back)", v.Primary())
	}
	if v.Members[2] != 0 {
		t.Fatalf("members = %v, want p0 last", v.Members)
	}
}

// TestBroadcastDuringViewChangeDeliveredOnce: messages sent exactly while
// the membership is reconfiguring are neither lost nor duplicated.
func TestBroadcastDuringViewChangeDeliveredOnce(t *testing.T) {
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}})
	c.sys.CrashAt(2, at(50))
	// Detection at 60; change runs ~60-80. Broadcast right in the middle.
	for _, ms := range []float64{59, 61, 63, 65, 67, 70, 75} {
		c.broadcastAt(proto.PID(int(ms)%2), at(ms))
	}
	c.run(2 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
}

// TestStateTransferCoversLongExclusion: many messages are delivered while
// a process is excluded; the rejoin snapshot must replay all of them in
// order. With a log of 8 the welcomer no longer holds them all: the
// joiner delivers the window, counts what came before it as delivered
// (a gap at the joiner) and then keeps in step with the group.
func TestStateTransferCoversLongExclusion(t *testing.T) {
	for _, retain := range []int{0, 8} {
		c := newCluster(clusterOpts{n: 3, logRetain: retain})
		c.eng.Schedule(at(20), func() {
			c.sys.FDs.InjectMistake(0, 2, 400*time.Millisecond)
		})
		for i := 0; i < 100; i++ {
			c.broadcastAt(proto.PID(i%2), at(float64(10+4*i))) // senders 0 and 1 only
		}
		for i := 0; i < 10; i++ {
			c.broadcastAt(proto.PID(i%3), at(float64(2000+10*i))) // after the rejoin
		}
		c.run(3 * time.Second)
		if got, want := c.procs[2].DeliveredCount(), c.procs[0].DeliveredCount(); got != want {
			t.Fatalf("retain %d: rejoined p2 delivered %d, members delivered %d", retain, got, want)
		}
		if retain == 0 {
			c.holds(t, proto.Prefix|proto.Destinations)
			continue
		}
		if got, all := len(c.deliveries[2]), len(c.deliveries[0]); got >= all {
			t.Fatalf("retain %d: p2 made %d of %d deliveries, want a gap", retain, got, all)
		}
		if err := c.hist.Check(proto.Order, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.hist.Check(proto.Prefix|proto.Agreement, func(p proto.PID) bool { return p != 2 }); err != nil {
			t.Fatal(err)
		}
		if c.fence.err != nil {
			t.Fatal(c.fence.err)
		}
	}
}

func TestNonUniformSequencerCrash(t *testing.T) {
	// The non-uniform variant has no ack round; a sequencer crash still
	// reconfigures through the membership service and total order holds
	// among survivors.
	uniform := false
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}, uniform: &uniform})
	for i := 0; i < 20; i++ {
		c.broadcastAt(proto.PID(1+i%2), at(float64(40+4*i)))
	}
	c.sys.CrashAt(0, at(60))
	c.run(2 * time.Second)
	// All messages from the surviving senders must reach both survivors.
	c.holds(t, proto.Prefix|proto.Validity)
}

func TestNonUniformWrongSuspicionExclusionRejoin(t *testing.T) {
	uniform := false
	c := newCluster(clusterOpts{n: 3, uniform: &uniform})
	c.eng.Schedule(at(30), func() {
		c.sys.FDs.InjectMistake(0, 2, 60*time.Millisecond)
	})
	for i := 0; i < 30; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(10+4*i)))
	}
	c.run(3 * time.Second)
	c.holds(t, proto.Prefix|proto.Destinations)
	if c.procs[2].IsExcluded() {
		t.Fatal("p2 still excluded after mistake ended")
	}
}

func TestSequencerBatchingUnderBurst(t *testing.T) {
	// A burst far faster than the protocol round-trip must be sequenced
	// in a handful of batches (MsgSeqNum aggregation), not one per
	// message — the §4.2 "essential for good performance" property.
	c := newCluster(clusterOpts{n: 3})
	seqnums := 0
	c.sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		if ev.Kind == netmodel.TraceSend {
			if _, ok := ev.Payload.(*MsgSeqNum); ok {
				seqnums++
			}
		}
	})
	for i := 0; i < 40; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(i)/5)) // 5 msgs per ms
	}
	c.run(time.Second)
	c.holds(t, proto.Destinations)
	if seqnums >= 20 {
		t.Fatalf("40 messages used %d seqnum multicasts; batching broken", seqnums)
	}
}
