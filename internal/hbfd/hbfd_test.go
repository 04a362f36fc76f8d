package hbfd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ctabcast"
	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// edge records a suspicion transition observed by the inner handler.
type edge struct {
	kind string // "suspect" or "trust"
	p    proto.PID
	at   sim.Time
}

// probe is a minimal inner handler recording FD edges and the Suspects
// view of its (wrapped) runtime.
type probe struct {
	rt    proto.Runtime
	edges []edge
}

func (h *probe) Init() {}

func (h *probe) OnMessage(from proto.PID, payload any) {}

func (h *probe) OnSuspect(p proto.PID) {
	if !h.rt.Suspects(p) {
		panic("edge/state mismatch: suspect edge while Suspects is false")
	}
	h.edges = append(h.edges, edge{kind: "suspect", p: p, at: h.rt.Now()})
}

func (h *probe) OnTrust(p proto.PID) {
	if h.rt.Suspects(p) {
		panic("edge/state mismatch: trust edge while Suspects is true")
	}
	h.edges = append(h.edges, edge{kind: "trust", p: p, at: h.rt.Now()})
}

// rig builds n processes, each a heartbeat wrapper around a probe.
func rig(n int, cfg Config) (*sim.Engine, *proto.System, []*Wrapper, []*probe) {
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(n), fd.QoS{}, sim.NewRand(1))
	wrappers := make([]*Wrapper, n)
	probes := make([]*probe, n)
	for i := 0; i < n; i++ {
		i := i
		wrappers[i] = Wrap(sys.Proc(proto.PID(i)), cfg, func(rt proto.Runtime) proto.Handler {
			probes[i] = &probe{rt: rt}
			return probes[i]
		})
		sys.SetHandler(proto.PID(i), wrappers[i])
	}
	sys.Start()
	return eng, sys, wrappers, probes
}

func at(ms float64) sim.Time { return sim.Time(0).Add(sim.Millis(ms)) }

func TestNoSuspicionsWhenIdle(t *testing.T) {
	eng, _, wrappers, probes := rig(3, Config{})
	eng.RunUntil(at(2000))
	for i, pr := range probes {
		if len(pr.edges) != 0 {
			t.Fatalf("p%d saw %d edges while idle: %+v", i, len(pr.edges), pr.edges)
		}
		total, _ := wrappers[i].Suspicions()
		if total != 0 {
			t.Fatalf("p%d raised %d suspicions while idle", i, total)
		}
	}
}

func TestCrashDetectedWithinTimeoutPlusSlack(t *testing.T) {
	cfg := Config{Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond}
	eng, sys, _, probes := rig(3, cfg)
	crash := at(100)
	sys.CrashAt(2, crash)
	eng.RunUntil(at(2000))
	for i := 0; i < 2; i++ {
		if len(probes[i].edges) != 1 {
			t.Fatalf("p%d edges = %+v, want one suspicion", i, probes[i].edges)
		}
		e := probes[i].edges[0]
		if e.kind != "suspect" || e.p != 2 {
			t.Fatalf("p%d edge = %+v", i, e)
		}
		// Detection latency: between Timeout and Timeout + Interval +
		// one in-flight heartbeat (~3ms network traversal).
		td := e.at.Sub(crash)
		if td < cfg.Timeout || td > cfg.Timeout+cfg.Interval+5*time.Millisecond {
			t.Fatalf("p%d detection latency = %v, want ~[%v, %v]", i, td,
				cfg.Timeout, cfg.Timeout+cfg.Interval)
		}
	}
}

func TestTightTimeoutCausesWrongSuspicionsUnderLoad(t *testing.T) {
	// Timeout barely above one network traversal: background traffic
	// delays heartbeats past it, producing suspicion/trust flapping —
	// the accuracy-vs-detection-time trade-off.
	cfg := Config{Interval: 4 * time.Millisecond, Timeout: 5 * time.Millisecond}
	eng, sys, wrappers, _ := rig(3, cfg)
	// Saturating background chatter (direct network sends bypass the
	// wrapper but occupy CPUs and wire).
	var spam func()
	spam = func() {
		sys.Net.Multicast(0, "noise")
		sys.Net.Multicast(1, "noise")
		eng.After(2*time.Millisecond, spam)
	}
	eng.Schedule(0, spam)
	eng.RunUntil(at(3000))
	totalWrong := 0
	for _, w := range wrappers {
		_, wrong := w.Suspicions()
		totalWrong += wrong
	}
	if totalWrong == 0 {
		t.Fatal("no wrong suspicions despite a too-tight timeout under load")
	}
}

func TestGenerousTimeoutAccurateUnderLoad(t *testing.T) {
	cfg := Config{Interval: 10 * time.Millisecond, Timeout: 100 * time.Millisecond}
	eng, sys, wrappers, _ := rig(3, cfg)
	var spam func()
	spam = func() {
		sys.Net.Multicast(0, "noise")
		eng.After(3*time.Millisecond, spam)
	}
	eng.Schedule(0, spam)
	eng.RunUntil(at(3000))
	for i, w := range wrappers {
		total, _ := w.Suspicions()
		if total != 0 {
			t.Fatalf("p%d raised %d suspicions with a generous timeout", i, total)
		}
	}
}

func TestAtomicBroadcastOverHeartbeatDetector(t *testing.T) {
	// End-to-end: the FD algorithm running on heartbeats instead of the
	// QoS model, with a real crash. Everything still delivers in order.
	const n = 3
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(n), fd.QoS{}, sim.NewRand(1))
	hist := proto.NewHistory(n)
	abcs := make([]*ctabcast.Process, n)
	for i := 0; i < n; i++ {
		i := i
		w := Wrap(sys.Proc(proto.PID(i)),
			Config{Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond},
			func(rt proto.Runtime) proto.Handler {
				abcs[i] = ctabcast.New(rt, ctabcast.Config{
					Renumber: true,
					Deliver:  func(id proto.MsgID, body any) { hist.Deliver(proto.PID(i), id) },
				})
				return abcs[i]
			})
		sys.SetHandler(proto.PID(i), w)
	}
	sys.Start()

	for k := 0; k < 10; k++ {
		k := k
		eng.Schedule(at(float64(10*k)), func() {
			if !sys.Proc(proto.PID(k % n)).Crashed() {
				hist.Broadcast(abcs[k%n].ABroadcast(fmt.Sprintf("m%d", k)))
			}
		})
	}
	sys.CrashAt(0, at(35)) // kill the coordinator mid-run
	eng.RunUntil(at(5000))

	// Survivors agree on one order and delivered the survivors' messages.
	if err := hist.Check(proto.Prefix|proto.Agreement|proto.Validity, func(p proto.PID) bool { return p != 0 }); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatTrafficLoad(t *testing.T) {
	// 3 processes at 10ms intervals for 1s: ~100 multicasts each.
	eng, sys, _, _ := rig(3, Config{Interval: 10 * time.Millisecond})
	eng.RunUntil(at(1000))
	mc := sys.Net.Counters().Multicasts
	if mc < 290 || mc > 310 {
		t.Fatalf("heartbeat multicasts = %d, want ~300", mc)
	}
}

func TestWrapValidation(t *testing.T) {
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(1), fd.QoS{}, sim.NewRand(1))
	defer func() {
		if recover() == nil {
			t.Fatal("nil inner handler did not panic")
		}
	}()
	Wrap(sys.Proc(0), Config{}, func(proto.Runtime) proto.Handler { return nil })
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Interval != defaultInterval || cfg.Timeout != 3*defaultInterval {
		t.Fatalf("defaults = %+v", cfg)
	}
}
