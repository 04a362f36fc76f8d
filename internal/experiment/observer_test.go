package experiment

import (
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// countingObserver records every event kind the chain can feed it.
type countingObserver struct {
	deliveries, broadcasts, netEvents int
}

func (o *countingObserver) ObserveDelivery(Delivery)          { o.deliveries++ }
func (o *countingObserver) ObserveBroadcast(Broadcast)        { o.broadcasts++ }
func (o *countingObserver) ObserveNet(ev netmodel.TraceEvent) { o.netEvents++ }

// TestObserverChainFeedsAllEventKinds runs one serial steady point with a
// full-surface observer and checks each event stream arrives and is
// consistent with the run's own accounting.
func TestObserverChainFeedsAllEventKinds(t *testing.T) {
	obs := make(map[int]*countingObserver)
	cfg := Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   50,
		Warmup:       200 * time.Millisecond,
		Measure:      time.Second,
		Drain:        5 * time.Second,
		Replications: 2,
		Observers: []ObserverFactory{
			func(point, rep int, cfg Config) Observer {
				o := &countingObserver{}
				obs[rep] = o
				return o
			},
		},
	}
	res := (&Runner{Workers: 1}).Steady(cfg)
	if !res.Stable {
		t.Fatalf("unstable run: %+v", res)
	}
	if len(obs) != 2 {
		t.Fatalf("factory built %d observers, want one per replication", len(obs))
	}
	for rep, o := range obs {
		if o.broadcasts == 0 || o.deliveries == 0 || o.netEvents == 0 {
			t.Fatalf("rep %d: events = %+v, want all three streams", rep, *o)
		}
		// Every broadcast is delivered at all 3 live processes.
		if o.deliveries != 3*o.broadcasts {
			t.Fatalf("rep %d: %d deliveries for %d broadcasts, want 3x", rep, o.deliveries, o.broadcasts)
		}
		if o.netEvents < o.broadcasts {
			t.Fatalf("rep %d: %d net events for %d broadcasts", rep, o.netEvents, o.broadcasts)
		}
	}
}

// orderObserver appends its tag and the hook's letter to a log shared by
// the observers of one replication.
type orderObserver struct {
	tag byte
	log *[]byte
}

func (o orderObserver) note(hook byte)                  { *o.log = append(*o.log, o.tag, hook) }
func (o orderObserver) ObserveDelivery(Delivery)        { o.note('D') }
func (o orderObserver) ObserveBroadcast(Broadcast)      { o.note('B') }
func (o orderObserver) ObserveNet(netmodel.TraceEvent)  { o.note('N') }
func (o orderObserver) ObservePlan(sim.Time, PlanEvent) { o.note('F') }
func (o orderObserver) ObserveLoad(sim.Time, LoadEvent) { o.note('L') }

// TestObserversCalledInFactoryOrder pins the fan-out: every event of every
// kind reaches the replication's observers in Config.Observers order.
func TestObserversCalledInFactoryOrder(t *testing.T) {
	const ms = time.Millisecond
	var log []byte
	tagged := func(tag byte) ObserverFactory {
		return func(int, int, Config) Observer { return orderObserver{tag, &log} }
	}
	cfg := Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   50,
		Plan:         NewFaultPlan().Suspect(250*ms, 0, 20*ms, 1),
		Load:         NewLoadPlan().Burst(300*ms, 50*ms, AllSenders, 2),
		Warmup:       200 * ms,
		Measure:      300 * ms,
		Drain:        5 * time.Second,
		Replications: 1,
		Observers:    []ObserverFactory{tagged('a'), tagged('b')},
	}
	(&Runner{Workers: 1}).Steady(cfg)
	seen := map[byte]bool{}
	for i := 0; i+3 < len(log); i += 4 {
		if log[i] != 'a' || log[i+2] != 'b' || log[i+1] != log[i+3] {
			t.Fatalf("event %d reached the observers as %q, want a then b", i/4, log[i:i+4])
		}
		seen[log[i+1]] = true
	}
	if len(log)%4 != 0 || len(seen) != 5 {
		t.Fatalf("%d hook calls over kinds %v, want all of D B N F L, each to both observers", len(log)/2, seen)
	}
}

// TestNilObserverFactorySkipped keeps a factory that declines (returns
// nil) from crashing the chain.
func TestNilObserverFactorySkipped(t *testing.T) {
	cfg := Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   20,
		Warmup:       200 * time.Millisecond,
		Measure:      500 * time.Millisecond,
		Drain:        5 * time.Second,
		Replications: 1,
		Observers: []ObserverFactory{
			func(int, int, Config) Observer { return nil },
		},
	}
	if res := RunSteady(cfg); !res.Stable {
		t.Fatalf("unstable run with nil observer: %+v", res)
	}
}

// TestDetectorAxisEndToEnd drives the concrete heartbeat detector
// through the Runner: the sweep's heartbeat point must run, stay stable,
// and show the detector's traffic in its latency (heartbeats contend for
// the same wire).
func TestDetectorAxisEndToEnd(t *testing.T) {
	sweep := Sweep{
		Base: Config{
			Algorithm:    FD,
			N:            3,
			Throughput:   100,
			Warmup:       300 * time.Millisecond,
			Measure:      2 * time.Second,
			Drain:        8 * time.Second,
			Replications: 2,
		},
		Detectors: []*Heartbeat{nil, {Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond}},
	}
	var r Runner
	res := r.Sweep(sweep)
	if len(res) != 2 {
		t.Fatalf("detector axis expanded to %d points", len(res))
	}
	qos, hb := res[0], res[1]
	if qos.Config.Detector != nil || hb.Config.Detector == nil {
		t.Fatalf("axis order wrong: %+v / %+v", qos.Config.Detector, hb.Config.Detector)
	}
	if !qos.Stable || !hb.Stable {
		t.Fatalf("unstable points: qos=%v hb=%v", qos.Stable, hb.Stable)
	}
	// 3 processes beating every 5 ms add 600 multicasts/s to a wire that
	// also carries the protocol: latency must visibly rise.
	if hb.Latency.Mean <= qos.Latency.Mean {
		t.Fatalf("heartbeat contention invisible: hb %v <= qos %v",
			hb.Latency.Mean, qos.Latency.Mean)
	}
}

// TestDetectorCrashDetection checks the heartbeat detector actually
// detects: a crash-steady point under the heartbeat FD must still
// deliver (survivors suspect the dead process by heartbeat silence).
func TestDetectorCrashDetection(t *testing.T) {
	cfg := Config{
		Algorithm:    GM,
		N:            3,
		Throughput:   30,
		Crashed:      []proto.PID{2},
		Detector:     &Heartbeat{Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond},
		Warmup:       300 * time.Millisecond,
		Measure:      time.Second,
		Drain:        8 * time.Second,
		Replications: 2,
	}
	res := RunSteady(cfg)
	if !res.Stable || res.Messages == 0 {
		t.Fatalf("heartbeat crash-steady run failed: %+v", res)
	}
}

// TestDetectorIgnoresQoS pins the documented precedence: when Detector
// selects the concrete heartbeat model, the QoS field is ignored, so a
// Sweep can cross a QoS axis with a Detectors axis and the heartbeat
// points stay bit-identical whatever QoS they inherited.
func TestDetectorIgnoresQoS(t *testing.T) {
	base := Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   30,
		Detector:     &Heartbeat{Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond},
		Warmup:       200 * time.Millisecond,
		Measure:      time.Second,
		Drain:        5 * time.Second,
		Replications: 2,
	}
	withQoS := base
	withQoS.QoS = fd.QoS{TD: 10 * time.Millisecond, TMR: 100 * time.Millisecond, TM: 5 * time.Millisecond}
	a, b := RunSteady(base), RunSteady(withQoS)
	if !a.Stable || !b.Stable {
		t.Fatalf("unstable heartbeat runs: %v / %v", a.Stable, b.Stable)
	}
	if !summariesBitIdentical(a.PerMessage, b.PerMessage) || a.Messages != b.Messages {
		t.Fatalf("QoS leaked into a Detector point:\nzero QoS: %+v\nwith QoS: %+v", a.PerMessage, b.PerMessage)
	}
}

// TestSweepPointsDetectorAxis checks the canonical expansion order with
// the new innermost axis.
func TestSweepPointsDetectorAxis(t *testing.T) {
	hb := &Heartbeat{Interval: 10 * time.Millisecond}
	s := Sweep{
		Base:        Config{Algorithm: FD, N: 3, Throughput: 10},
		Throughputs: []float64{10, 100},
		Detectors:   []*Heartbeat{nil, hb},
	}
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("2x2 grid expanded to %d points", len(pts))
	}
	want := []struct {
		thr float64
		det *Heartbeat
	}{
		{10, nil}, {10, hb}, {100, nil}, {100, hb},
	}
	for i, w := range want {
		if pts[i].Throughput != w.thr || pts[i].Detector != w.det {
			t.Fatalf("point %d = (T=%v, det=%v), want (T=%v, det=%v)",
				i, pts[i].Throughput, pts[i].Detector, w.thr, w.det)
		}
	}
	// An unset axis inherits Base.Detector.
	single := Sweep{Base: Config{Algorithm: FD, N: 3, Throughput: 10, Detector: hb}}.Points()
	if len(single) != 1 || single[0].Detector != hb {
		t.Fatalf("Base detector not inherited: %+v", single)
	}
}
