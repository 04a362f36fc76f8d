package proto

import (
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// event records something a test handler observed.
type event struct {
	kind    string // "init", "msg", "suspect", "trust"
	from    PID
	payload any
	at      sim.Time
}

// testHandler records events and optionally reacts to messages.
type testHandler struct {
	rt     Runtime
	events []event
	onMsg  func(from PID, payload any)
}

func (h *testHandler) Init() {
	h.events = append(h.events, event{kind: "init", at: h.rt.Now()})
}

func (h *testHandler) OnMessage(from PID, payload any) {
	h.events = append(h.events, event{kind: "msg", from: from, payload: payload, at: h.rt.Now()})
	if h.onMsg != nil {
		h.onMsg(from, payload)
	}
}

func (h *testHandler) OnSuspect(p PID) {
	h.events = append(h.events, event{kind: "suspect", from: p, at: h.rt.Now()})
}

func (h *testHandler) OnTrust(p PID) {
	h.events = append(h.events, event{kind: "trust", from: p, at: h.rt.Now()})
}

// build constructs a system of n processes with recording handlers.
func build(n int, qos fd.QoS) (*System, []*testHandler) {
	eng := sim.New()
	sys := NewSystem(eng, netmodel.DefaultConfig(n), qos, sim.NewRand(1))
	handlers := make([]*testHandler, n)
	for p := 0; p < n; p++ {
		h := &testHandler{rt: sys.Proc(PID(p))}
		handlers[p] = h
		sys.SetHandler(PID(p), h)
	}
	return sys, handlers
}

func (h *testHandler) count(kind string) int {
	c := 0
	for _, e := range h.events {
		if e.kind == kind {
			c++
		}
	}
	return c
}

func TestStartInitialisesHandlers(t *testing.T) {
	sys, handlers := build(3, fd.QoS{})
	sys.Start()
	for p, h := range handlers {
		if h.count("init") != 1 {
			t.Fatalf("process %d init count = %d", p, h.count("init"))
		}
	}
}

func TestStartTwicePanics(t *testing.T) {
	sys, _ := build(1, fd.QoS{})
	sys.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	sys.Start()
}

func TestStartWithoutHandlerPanics(t *testing.T) {
	eng := sim.New()
	sys := NewSystem(eng, netmodel.DefaultConfig(2), fd.QoS{}, sim.NewRand(1))
	sys.SetHandler(0, &testHandler{rt: sys.Proc(0)})
	defer func() {
		if recover() == nil {
			t.Fatal("Start with missing handler did not panic")
		}
	}()
	sys.Start()
}

func TestSendAndMulticastDelivery(t *testing.T) {
	sys, handlers := build(3, fd.QoS{})
	sys.Start()
	sys.Eng.Schedule(0, func() {
		sys.Proc(0).Send(1, "uni")
		sys.Proc(2).Multicast("multi")
	})
	sys.Eng.Run()
	if handlers[1].count("msg") != 2 { // uni + multi
		t.Fatalf("p1 got %d messages, want 2", handlers[1].count("msg"))
	}
	if handlers[0].count("msg") != 1 || handlers[2].count("msg") != 1 {
		t.Fatalf("multicast delivery incomplete: p0=%d p2=%d",
			handlers[0].count("msg"), handlers[2].count("msg"))
	}
	// Multicast self-copy arrives from self.
	var selfFrom PID = -1
	for _, e := range handlers[2].events {
		if e.kind == "msg" {
			selfFrom = e.from
		}
	}
	if selfFrom != 2 {
		t.Fatalf("self multicast copy from %d, want 2", selfFrom)
	}
}

func TestCrashedHandlerNeverRuns(t *testing.T) {
	sys, handlers := build(2, fd.QoS{TD: time.Millisecond})
	sys.Start()
	sys.Eng.Schedule(0, func() { sys.Proc(0).Send(1, "before") })
	sys.CrashAt(1, sim.Time(0).Add(time.Millisecond)) // crash while msg in flight
	sys.Eng.Schedule(sim.Time(0).Add(10*time.Millisecond), func() {
		sys.Proc(0).Send(1, "after")
	})
	sys.Eng.Run()
	if handlers[1].count("msg") != 0 {
		t.Fatalf("crashed process handled %d messages", handlers[1].count("msg"))
	}
}

// timerKinds are the ways a handler schedules a guarded callback: an
// alarm it keeps and re-arms is the only one.
var timerKinds = []struct {
	name string
	arm  func(rt Runtime, d time.Duration, fn func())
}{
	{"Alarm", func(rt Runtime, d time.Duration, fn func()) { rt.NewAlarm(fn).Arm(d) }},
}

func TestCrashedProcessTimersDropped(t *testing.T) {
	for _, kind := range timerKinds {
		t.Run(kind.name, func(t *testing.T) {
			sys, _ := build(1, fd.QoS{})
			sys.Start()
			fired := false
			sys.Eng.Schedule(0, func() {
				kind.arm(sys.Proc(0), 5*time.Millisecond, func() { fired = true })
			})
			sys.CrashAt(0, sim.Time(0).Add(time.Millisecond))
			sys.Eng.Run()
			if fired {
				t.Fatal("timer fired after crash")
			}
		})
	}
}

// TestAlarmPending: an alarm is pending from Arm until it fires, is
// cancelled, has its firing dropped because the process was crashed, or
// is dropped by an engine reset — the alarm's own state, with no flag
// beside it to go stale.
func TestAlarmPending(t *testing.T) {
	sys, _ := build(1, fd.QoS{})
	sys.Start()
	eng := sys.Eng
	fired := 0
	alarm := sys.Proc(0).NewAlarm(func() { fired++ })
	check := func(step string, want bool) {
		t.Helper()
		if got := alarm.Pending(); got != want {
			t.Fatalf("%s: Pending() = %v, want %v", step, got, want)
		}
	}
	check("new", false)
	alarm.Arm(time.Millisecond)
	check("armed", true)
	eng.Run()
	check("fired", false)
	if fired != 1 {
		t.Fatalf("alarm fired %d times, want 1", fired)
	}

	alarm.Arm(time.Millisecond)
	alarm.Cancel()
	check("cancelled", false)

	// A firing dropped while the process is crashed ends the wait too.
	alarm.Arm(5 * time.Millisecond)
	sys.Crash(0)
	check("armed, crashed", true)
	eng.Run()
	check("dropped while crashed", false)
	sys.Recover(0, nil)
	if fired != 1 {
		t.Fatalf("alarm fired %d times across the crash, want 1", fired)
	}

	alarm.Arm(time.Millisecond)
	eng.Reset()
	check("engine reset", false)

	// Inside its own callback the alarm is no longer pending, so the
	// callback may re-arm it.
	var ran, pendingInside bool
	var self *Alarm
	self = sys.Proc(0).NewAlarm(func() { ran, pendingInside = true, self.Pending() })
	self.Arm(time.Millisecond)
	eng.Run()
	if !ran || pendingInside {
		t.Fatalf("callback ran %v, pending inside it %v; want true, false", ran, pendingInside)
	}
}

// zombieMsg is a pooled wire message for TestCrashedProcessCannotSend.
type zombieMsg struct{ netmodel.Box[zombieMsg] }

func TestCrashedProcessCannotSend(t *testing.T) {
	sys, handlers := build(2, fd.QoS{})
	sys.Start()
	set := sys.Net.RegisterSet([]int{0, 1})
	returned := 0
	pool := netmodel.NewPool(func(*zombieMsg) { returned++ })
	sends := []struct {
		name string
		send func(m *zombieMsg)
	}{
		{"Send", func(m *zombieMsg) { sys.Proc(0).Send(1, m) }},
		{"Multicast", func(m *zombieMsg) { sys.Proc(0).Multicast(m) }},
		{"MulticastSet", func(m *zombieMsg) { sys.Proc(0).MulticastSet(set, m) }},
	}
	sys.Eng.Schedule(0, func() { sys.Crash(0) })
	sys.Eng.Schedule(sim.Time(0).Add(time.Millisecond), func() {
		sys.Proc(0).Send(1, "zombie")
		sys.Proc(0).Multicast("zombie-mc")
		// A crashed sender's pooled box goes back to its pool exactly
		// once, at the call.
		for i, s := range sends {
			s.send(pool.Get())
			if returned != i+1 {
				t.Errorf("crashed %s: box returned %d times in all, want %d", s.name, returned, i+1)
			}
		}
	})
	sys.Eng.Run()
	if handlers[1].count("msg") != 0 {
		t.Fatal("crashed process sent messages")
	}
	if returned != len(sends) {
		t.Fatalf("boxes returned %d times after the run, want %d", returned, len(sends))
	}
}

func TestFDEdgesReachHandlers(t *testing.T) {
	sys, handlers := build(3, fd.QoS{TD: 5 * time.Millisecond})
	sys.Start()
	sys.CrashAt(2, sim.Time(0).Add(10*time.Millisecond))
	sys.Eng.RunUntil(sim.Time(0).Add(time.Second))
	for p := 0; p < 2; p++ {
		if handlers[p].count("suspect") != 1 {
			t.Fatalf("p%d suspect edges = %d, want 1", p, handlers[p].count("suspect"))
		}
		// Verify the suspicion is also queryable through the runtime.
		if !sys.Proc(PID(p)).Suspects(2) {
			t.Fatalf("p%d Suspects(2) = false", p)
		}
	}
	if handlers[2].count("suspect") != 0 {
		t.Fatal("crashed process received FD edges")
	}
}

func TestInjectedMistakeEdges(t *testing.T) {
	sys, handlers := build(2, fd.QoS{})
	sys.Start()
	sys.Eng.Schedule(0, func() {
		sys.FDs.InjectMistake(0, 1, 3*time.Millisecond)
	})
	sys.Eng.Run()
	if handlers[0].count("suspect") != 1 || handlers[0].count("trust") != 1 {
		t.Fatalf("p0 edges: suspect=%d trust=%d, want 1/1",
			handlers[0].count("suspect"), handlers[0].count("trust"))
	}
}

func TestPreCrash(t *testing.T) {
	sys, handlers := build(3, fd.QoS{TD: time.Hour})
	sys.PreCrash(2)
	sys.Start()
	if handlers[2].count("init") != 0 {
		t.Fatal("pre-crashed process was initialised")
	}
	if !sys.Proc(0).Suspects(2) || !sys.Proc(1).Suspects(2) {
		t.Fatal("pre-crashed process not suspected from the start")
	}
	if !sys.Proc(2).Crashed() {
		t.Fatal("Crashed() = false for pre-crashed process")
	}
}

func TestRuntimeBasics(t *testing.T) {
	sys, _ := build(4, fd.QoS{})
	p := sys.Proc(2)
	if p.ID() != 2 || p.N() != 4 {
		t.Fatalf("ID/N = %d/%d, want 2/4", p.ID(), p.N())
	}
	if p.Rand() == nil {
		t.Fatal("nil process rand")
	}
	if sys.Proc(0).Rand() == sys.Proc(1).Rand() {
		t.Fatal("processes share a random stream")
	}
	if p.Now() != 0 {
		t.Fatalf("Now() = %v at start", p.Now())
	}
}

func TestSetHandlerAfterStartPanics(t *testing.T) {
	sys, _ := build(1, fd.QoS{})
	sys.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("SetHandler after Start did not panic")
		}
	}()
	sys.SetHandler(0, &testHandler{})
}

func TestMsgIDOrdering(t *testing.T) {
	a := MsgID{Origin: 0, Seq: 5}
	b := MsgID{Origin: 1, Seq: 1}
	c := MsgID{Origin: 1, Seq: 2}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Fatal("MsgID ordering broken")
	}
	if a.Less(a) {
		t.Fatal("MsgID Less not strict")
	}
	if a.String() != "0:5" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestSortMsgIDs(t *testing.T) {
	ids := []MsgID{{2, 1}, {0, 9}, {1, 3}, {0, 2}, {1, 1}}
	SortMsgIDs(ids)
	want := []MsgID{{0, 2}, {0, 9}, {1, 1}, {1, 3}, {2, 1}}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", ids, want)
		}
	}
	SortMsgIDs(nil) // must not panic
}

func TestPingPongOverRuntime(t *testing.T) {
	// Message-driven interaction: p0 sends "ping", p1 replies "pong",
	// verifying handler reentrancy through the event queue.
	sys, handlers := build(2, fd.QoS{})
	handlers[1].onMsg = func(from PID, payload any) {
		if payload == "ping" {
			sys.Proc(1).Send(from, "pong")
		}
	}
	sys.Start()
	sys.Eng.Schedule(0, func() { sys.Proc(0).Send(1, "ping") })
	sys.Eng.Run()
	var gotPong bool
	for _, e := range handlers[0].events {
		if e.payload == "pong" {
			gotPong = true
			// ping: cpu0 0→1, wire 1→2, cpu1 2→3; pong: 3→4, 4→5, 5→6.
			if e.at != sim.Time(0).Add(6*time.Millisecond) {
				t.Fatalf("pong at %v, want 6ms", e.at)
			}
		}
	}
	if !gotPong {
		t.Fatal("no pong received")
	}
}
