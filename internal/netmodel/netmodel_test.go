package netmodel

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// delivery records one completed delivery for assertions.
type delivery struct {
	to, from int
	payload  any
	at       sim.Time
}

// harness wires a network to a recording deliver function.
type harness struct {
	eng *sim.Engine
	nw  *Network
	got []delivery
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{eng: sim.New()}
	h.nw = New(h.eng, cfg, func(to, from int, payload any) {
		h.got = append(h.got, delivery{to: to, from: from, payload: payload, at: h.eng.Now()})
	})
	return h
}

func ms(v float64) sim.Time { return sim.Time(0).Add(sim.Millis(v)) }

func (h *harness) deliveriesTo(p int) []delivery {
	var out []delivery
	for _, d := range h.got {
		if d.to == p {
			out = append(out, d)
		}
	}
	return out
}

func TestUnicastTiming(t *testing.T) {
	// λ=1, slot=1: CPU₀ 0→1, wire 1→2, CPU₁ 2→3.
	h := newHarness(t, DefaultConfig(2))
	h.eng.Schedule(0, func() { h.nw.Send(0, 1, "m") })
	h.eng.Run()
	if len(h.got) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(h.got))
	}
	if h.got[0].at != ms(3) {
		t.Fatalf("delivered at %v, want 3ms", h.got[0].at)
	}
	if h.got[0].from != 0 || h.got[0].to != 1 || h.got[0].payload != "m" {
		t.Fatalf("delivery = %+v", h.got[0])
	}
}

func TestSenderCPUQueueing(t *testing.T) {
	// Two messages sent back-to-back: the second waits λ on the sender CPU.
	h := newHarness(t, DefaultConfig(2))
	h.eng.Schedule(0, func() {
		h.nw.Send(0, 1, "a")
		h.nw.Send(0, 1, "b")
	})
	h.eng.Run()
	if len(h.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(h.got))
	}
	if h.got[0].at != ms(3) || h.got[1].at != ms(4) {
		t.Fatalf("delivered at %v and %v, want 3ms and 4ms", h.got[0].at, h.got[1].at)
	}
	if h.got[0].payload != "a" || h.got[1].payload != "b" {
		t.Fatal("FIFO order violated on sender CPU")
	}
}

func TestWireContention(t *testing.T) {
	// Two senders transmit at once: their messages serialise on the wire.
	h := newHarness(t, DefaultConfig(3))
	h.eng.Schedule(0, func() {
		h.nw.Send(0, 2, "from0")
		h.nw.Send(1, 2, "from1")
	})
	h.eng.Run()
	// CPU₀ and CPU₁ both finish at 1; wire serves 1→2 then 2→3; CPU₂
	// serves 2→3 then 3→4.
	if len(h.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(h.got))
	}
	if h.got[0].at != ms(3) || h.got[1].at != ms(4) {
		t.Fatalf("delivered at %v and %v, want 3ms and 4ms", h.got[0].at, h.got[1].at)
	}
	if h.got[0].payload != "from0" {
		t.Fatal("wire order should follow CPU-completion scheduling order")
	}
}

func TestMulticastFansOutInParallel(t *testing.T) {
	// Multicast occupies the wire once; all remote CPUs work in parallel.
	h := newHarness(t, DefaultConfig(5))
	h.eng.Schedule(0, func() { h.nw.Multicast(0, "m") })
	h.eng.Run()
	if len(h.got) != 5 {
		t.Fatalf("got %d deliveries, want 5 (4 remote + self)", len(h.got))
	}
	for _, d := range h.got {
		want := ms(3)
		if d.to == 0 {
			want = ms(0) // local copy is free
		}
		if d.at != want {
			t.Fatalf("delivery to p%d at %v, want %v", d.to, d.at, want)
		}
	}
	c := h.nw.Counters()
	if c.WireSlots != 1 {
		t.Fatalf("multicast used %d wire slots, want 1", c.WireSlots)
	}
	if c.Multicasts != 1 || c.Unicasts != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestSelfSendIsLocalAndFree(t *testing.T) {
	h := newHarness(t, DefaultConfig(2))
	h.eng.Schedule(ms(7), func() { h.nw.Send(1, 1, "self") })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].at != ms(7) {
		t.Fatalf("self delivery = %+v, want at 7ms", h.got)
	}
	c := h.nw.Counters()
	if c.WireSlots != 0 || c.Unicasts != 0 || c.LocalSends != 1 {
		t.Fatalf("self-send touched network resources: %+v", c)
	}
}

func TestSelfDeliveryDoesNotReenterCaller(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	inCall := true
	reentered := false
	h.eng.Schedule(0, func() {
		h.nw.Send(0, 0, "x")
		inCall = false
	})
	prev := h.nw.deliver
	h.nw.deliver = func(to, from int, payload any) {
		if inCall {
			reentered = true
		}
		prev(to, from, payload)
	}
	h.eng.Run()
	if reentered {
		t.Fatal("self delivery reentered the sending callback")
	}
	if len(h.got) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(h.got))
	}
}

func TestReceiverCPUSharedBetweenDirections(t *testing.T) {
	// p1 sends at t=2.5 while a message into p1 is occupying CPU₁.
	// Incoming: CPU₀ 0→1, wire 1→2, CPU₁ 2→3 (deliver 3).
	// Outgoing from p1 enqueued at t=2.5: CPU₁ is busy until 3, so 3→4;
	// wire 4→5; CPU₀ 5→6 (deliver 6).
	h := newHarness(t, DefaultConfig(2))
	h.eng.Schedule(0, func() { h.nw.Send(0, 1, "in") })
	h.eng.Schedule(ms(2.5), func() { h.nw.Send(1, 0, "out") })
	h.eng.Run()
	if len(h.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(h.got))
	}
	if h.got[0].at != ms(3) || h.got[1].at != ms(6) {
		t.Fatalf("deliveries at %v and %v, want 3ms and 6ms", h.got[0].at, h.got[1].at)
	}
}

func TestCrashStopsDeliveryButNotInFlightSends(t *testing.T) {
	h := newHarness(t, DefaultConfig(3))
	// p1 sends at t=0 (in flight after crash), and a message to p1
	// arrives after its crash.
	h.eng.Schedule(0, func() {
		h.nw.Send(1, 2, "fromCrashing") // delivered at 3ms regardless
		h.nw.Send(0, 1, "toCrashing")   // would deliver at 3ms; dropped
	})
	h.eng.Schedule(ms(1.5), func() { h.nw.Crash(1) })
	h.eng.Run()
	if len(h.got) != 1 {
		t.Fatalf("got %d deliveries, want 1: %+v", len(h.got), h.got)
	}
	if h.got[0].to != 2 || h.got[0].payload != "fromCrashing" {
		t.Fatalf("surviving delivery = %+v", h.got[0])
	}
	c := h.nw.Counters()
	if c.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", c.Drops)
	}
}

func TestCrashedProcessCannotSend(t *testing.T) {
	h := newHarness(t, DefaultConfig(2))
	h.eng.Schedule(0, func() { h.nw.Crash(0) })
	h.eng.Schedule(ms(1), func() {
		h.nw.Send(0, 1, "late")
		h.nw.Multicast(0, "late-mc")
	})
	h.eng.Run()
	if len(h.got) != 0 {
		t.Fatalf("crashed process delivered %d messages", len(h.got))
	}
	if c := h.nw.Counters(); c.WireSlots != 0 {
		t.Fatalf("crashed process used the wire: %+v", c)
	}
}

func TestMulticastToCrashedDestination(t *testing.T) {
	h := newHarness(t, DefaultConfig(3))
	h.eng.Schedule(0, func() { h.nw.Crash(2) })
	h.eng.Schedule(ms(1), func() { h.nw.Multicast(0, "m") })
	h.eng.Run()
	// p0 (self) and p1 get it; p2 drops.
	if len(h.got) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(h.got))
	}
	for _, d := range h.got {
		if d.to == 2 {
			t.Fatal("delivered to crashed process")
		}
	}
}

func TestZeroLambda(t *testing.T) {
	// λ=0 models infinitely fast hosts: only the wire costs time.
	h := newHarness(t, Config{N: 2, Lambda: 0})
	h.eng.Schedule(0, func() { h.nw.Send(0, 1, "m") })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].at != ms(1) {
		t.Fatalf("delivery = %+v, want at 1ms", h.got)
	}
}

func TestLambdaTwo(t *testing.T) {
	// λ=2: CPU₀ 0→2, wire 2→3, CPU₁ 3→5.
	h := newHarness(t, Config{N: 2, Lambda: 2 * time.Millisecond})
	h.eng.Schedule(0, func() { h.nw.Send(0, 1, "m") })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].at != ms(5) {
		t.Fatalf("delivery = %+v, want at 5ms", h.got)
	}
}

func TestThroughputSaturation(t *testing.T) {
	// The wire serves exactly one message per slot. Offered load of 2
	// messages per slot must drain at slot rate: k-th delivery at
	// 2 + k slots (CPU pipeline adds 2ms latency at both ends).
	h := newHarness(t, DefaultConfig(2))
	const msgs = 20
	h.eng.Schedule(0, func() {
		for i := 0; i < msgs; i++ {
			h.nw.Send(0, 1, i)
		}
	})
	h.eng.Run()
	if len(h.got) != msgs {
		t.Fatalf("got %d deliveries, want %d", len(h.got), msgs)
	}
	last := h.got[msgs-1].at
	// Sender CPU releases message k at k+1 ms; the wire is then the
	// bottleneck only if λ < slot. With λ = slot = 1ms the CPU is pacing:
	// message k (0-based) leaves CPU at k+1, wire k+1→k+2, CPU₁ k+2→k+3.
	want := ms(msgs + 2)
	if last != want {
		t.Fatalf("last delivery at %v, want %v", last, want)
	}
}

func TestTraceEventsCoverLifecycle(t *testing.T) {
	h := newHarness(t, DefaultConfig(2))
	var kinds []TraceKind
	h.nw.SetTrace(func(ev TraceEvent) { kinds = append(kinds, ev.Kind) })
	h.eng.Schedule(0, func() { h.nw.Send(0, 1, "m") })
	h.eng.Run()
	want := []TraceKind{TraceSend, TraceWire, TraceDeliver}
	if len(kinds) != len(want) {
		t.Fatalf("trace kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace kinds = %v, want %v", kinds, want)
		}
	}
}

func TestTraceKindString(t *testing.T) {
	if TraceSend.String() != "send" || TraceDrop.String() != "drop" {
		t.Fatal("TraceKind.String misnamed")
	}
	if TraceKind(99).String() == "" {
		t.Fatal("unknown TraceKind should still format")
	}
}

func TestCountersAccumulate(t *testing.T) {
	h := newHarness(t, DefaultConfig(3))
	h.eng.Schedule(0, func() {
		h.nw.Send(0, 1, "u")
		h.nw.Multicast(1, "m")
		h.nw.Send(2, 2, "self")
	})
	h.eng.Run()
	c := h.nw.Counters()
	if c.Unicasts != 1 || c.Multicasts != 1 || c.LocalSends != 2 {
		t.Fatalf("counters = %+v", c)
	}
	if c.WireSlots != 2 {
		t.Fatalf("WireSlots = %d, want 2", c.WireSlots)
	}
	// Deliveries: unicast (1) + multicast to 3 incl. self (3) + self (1).
	if c.Deliveries != 5 {
		t.Fatalf("Deliveries = %d, want 5", c.Deliveries)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := map[string]Config{
		"zero N":          {N: 0, Lambda: 1},
		"negative lambda": {N: 1, Lambda: -1},
	}
	for name, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(sim.New(), cfg, func(int, int, any) {})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil deliver did not panic")
			}
		}()
		New(sim.New(), DefaultConfig(1), nil)
	}()
	// Checked without New, which would build N² routing tables.
	if err := DefaultConfig(maxProcs).validate(); err != nil {
		t.Errorf("the largest N whose ids fit a field: %v", err)
	}
	if DefaultConfig(maxProcs+1).validate() == nil {
		t.Errorf("N = %d, past a field, validated", maxProcs+1)
	}
}

func TestSingleProcessMulticast(t *testing.T) {
	h := newHarness(t, DefaultConfig(1))
	h.eng.Schedule(0, func() { h.nw.Multicast(0, "solo") })
	h.eng.Run()
	if len(h.got) != 1 || h.got[0].to != 0 {
		t.Fatalf("deliveries = %+v, want one local", h.got)
	}
	if c := h.nw.Counters(); c.WireSlots != 0 {
		t.Fatal("n=1 multicast should not use the wire")
	}
}

func TestPaperExampleRunTiming(t *testing.T) {
	// The round-trip from Fig. 1 reduced to its first exchange: p0
	// multicasts m (everyone has it at 3ms), p1 unicasts a reply as soon
	// as it receives m. Reply: CPU₁ 3→4, wire 4→5, CPU₀ 5→6.
	h := newHarness(t, DefaultConfig(3))
	h.nw.deliver = func(to, from int, payload any) {
		h.got = append(h.got, delivery{to: to, from: from, payload: payload, at: h.eng.Now()})
		if to == 1 && payload == "m" {
			h.nw.Send(1, 0, "ack")
		}
	}
	h.eng.Schedule(0, func() { h.nw.Multicast(0, "m") })
	h.eng.Run()
	var ackAt sim.Time
	for _, d := range h.got {
		if d.payload == "ack" {
			ackAt = d.at
		}
	}
	if ackAt != ms(6) {
		t.Fatalf("ack delivered at %v, want 6ms", ackAt)
	}
}

// TestTwoProcessMulticastWireTracesConcreteDestination: the wire hop of a
// multicast with exactly one remote destination (N = 2) records that
// destination, not the -1 broadcast marker — every one-destination wire
// occupation traces the same way, whether it came from Send or Multicast.
func TestTwoProcessMulticastWireTracesConcreteDestination(t *testing.T) {
	h := newHarness(t, DefaultConfig(2))
	var wires []TraceEvent
	h.nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceWire {
			wires = append(wires, ev)
		}
	})
	h.nw.Multicast(0, "m")
	h.nw.Send(1, 0, "u")
	h.eng.Run()
	if len(wires) != 2 {
		t.Fatalf("traced %d wire events, want 2", len(wires))
	}
	if wires[0].From != 0 || wires[0].To != 1 {
		t.Fatalf("multicast wire hop traced %d->%d, want 0->1", wires[0].From, wires[0].To)
	}
	if wires[1].From != 1 || wires[1].To != 0 {
		t.Fatalf("unicast wire hop traced %d->%d, want 1->0", wires[1].From, wires[1].To)
	}
}

// TestWiderMulticastWireTracesBroadcastMarker: with more than one remote
// destination the wire hop traces To = -1.
func TestWiderMulticastWireTracesBroadcastMarker(t *testing.T) {
	h := newHarness(t, DefaultConfig(3))
	var wires []TraceEvent
	h.nw.SetTrace(func(ev TraceEvent) {
		if ev.Kind == TraceWire {
			wires = append(wires, ev)
		}
	})
	h.nw.Multicast(0, "m")
	h.eng.Run()
	if len(wires) != 1 || wires[0].To != -1 {
		t.Fatalf("3-process multicast wire trace = %+v, want one event with To=-1", wires)
	}
}
