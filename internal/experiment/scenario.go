package experiment

import (
	"time"

	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Delivery is one A-delivery observed during a replication.
type Delivery struct {
	Process proto.PID
	ID      proto.MsgID
	At      sim.Time
}

// RepStats carries one replication's raw results back to the aggregator.
// Latencies are accumulated in canonical message order inside the
// replication, so merging replications in index order reproduces the
// serial path bit for bit.
type RepStats struct {
	// Latencies holds the replication's measured latencies in
	// milliseconds: one per delivered awaited message (steady points) or
	// at most one probe latency (crash-transient). The collector
	// carries the full distribution, so aggregation reports quantiles and
	// histograms alongside the mean.
	Latencies stats.Collector
	// Undelivered counts awaited messages never delivered within the
	// drain window.
	Undelivered int
	// Diverged is set when the replication was aborted on a backlog beyond
	// DivergenceBacklog.
	Diverged bool
}

// Slice lengths: how often the pipeline pauses the simulation to check
// for divergence (measure phase) and for early completion (drain phase).
// The drain slice is chosen by kind — it decides how far past the last
// awaited delivery a replication runs, which traces record.
const (
	measureSlice        = 500 * time.Millisecond
	steadyDrainSlice    = 100 * time.Millisecond
	transientDrainSlice = 50 * time.Millisecond
)

// replication is one run of the replication pipeline: the Core, the
// observer fan-out, the divergence backlog and the awaited set. All four
// scenarios of the paper are this one value; they differ in Config
// (normal-steady has no crashes and no suspicions, crash-steady lists the
// long-crashed processes in Config.Crashed, suspicion-steady sets the
// mistake rate in Config.QoS) and, for crash-transient, in which ids are
// awaited.
type replication struct {
	core *Core
	// observers holds one instance per Config.Observers factory, in factory
	// order; bcastObservers is its BroadcastObserver subset.
	observers      []Observer
	bcastObservers []BroadcastObserver
	// broadcasts and deliveredAt0 are the backlog accounting used for
	// divergence detection: every broadcast issued through broadcast()
	// versus deliveries observed at process 0 (always alive in steady
	// scenarios: crash-steady crashes the highest PIDs). In groups mode
	// only multicasts whose destination groups contain p0 count — p0
	// never delivers the rest.
	broadcasts, deliveredAt0 int
	// awaited holds each awaited id's A-broadcast instant and its earliest
	// A-delivery on any process (§5.1); open counts the awaited ids not
	// delivered yet. Ids are dense per origin — every sender numbers its
	// broadcasts 1, 2, … — so the table is a few rings, and walking it
	// visits the ids in canonical order.
	awaited proto.IDTable[awaitedMsg]
	open    int
	// start and end bound the measure window.
	start, end sim.Time
}

// awaitedMsg is one entry of the awaited set.
type awaitedMsg struct {
	sent, first sim.Time
	delivered   bool
}

// pick returns the observers that also implement T, in order.
func pick[T any](observers []Observer) []T {
	var out []T
	for _, o := range observers {
		if t, ok := o.(T); ok {
			out = append(out, t)
		}
	}
	return out
}

// runReplication is the replication pipeline: it builds the Core, attaches
// one observer per Config.Observers factory (an Invariants observer by
// installing its History as Core.History), starts the workload, runs the
// measure phase in divergence-checked slices, then drains until every
// awaited delivery landed or the drain budget runs out. A steady point
// awaits every id A-broadcast in [Warmup, Warmup+Measure). A
// crash-transient point (cfg.transient) has an empty window: at Warmup it
// crashes one process and awaits the probe A-broadcast in the same instant
// (Fig. 8), and it is not checked for divergence — its drain deadline
// bounds it, and the crashed process may be p0. Each invocation is an
// independent deterministic simulation keyed by (cfg.Seed, rep), so
// replications can run on any goroutine in any order; point and rep only
// name the replication to its observers.
func runReplication(cfg Config, point, rep int) RepStats {
	return new(replication).run(cfg, point, rep)
}

// run is runReplication on a replication value a Runner worker keeps
// between the replications it runs. Its Core is Reset for every
// replication and its awaited set is emptied instead of made again; the
// result is bit for bit the result on fresh ones.
func (r *replication) run(cfg Config, point, rep int) RepStats {
	if r.core == nil {
		r.core = new(Core)
	}
	r.awaited.Reset()
	*r = replication{core: r.core, awaited: r.awaited}
	start := sim.Time(0).Add(cfg.Warmup)
	end, drainSlice := start.Add(cfg.Measure), steadyDrainSlice
	if cfg.transient != nil {
		end, drainSlice = start, transientDrainSlice
	}
	r.start, r.end = start, end

	cc := cfg.core(repSeed(cfg.Seed, rep))
	cc.Deliver = r.deliver
	r.core.Reset(cc)
	eng := r.core.Eng

	for _, factory := range cfg.Observers {
		switch o := factory(point, rep, cfg).(type) {
		case nil:
		case history:
			if r.core.History != nil {
				panic("experiment: two Invariants observe one replication")
			}
			r.core.History = o.h
		default:
			r.observers = append(r.observers, o)
		}
	}
	r.bcastObservers = pick[BroadcastObserver](r.observers)
	if obs := pick[NetObserver](r.observers); len(obs) > 0 {
		r.core.Sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
			for _, o := range obs {
				o.ObserveNet(ev)
			}
		})
	}
	if obs := pick[PlanObserver](r.observers); len(obs) > 0 {
		r.core.Faults.OnEvent = func(ev PlanEvent) {
			for _, o := range obs {
				o.ObservePlan(eng.Now(), ev)
			}
		}
	}
	r.core.StartLoad(r.arrival)
	// StartLoad built the Loads installer; nothing fires before the first
	// RunUntil below.
	if obs := pick[LoadObserver](r.observers); len(obs) > 0 {
		r.core.Loads.OnEvent = func(ev LoadEvent) {
			for _, o := range obs {
				o.ObserveLoad(eng.Now(), ev)
			}
		}
	}
	if ti := cfg.transient; ti != nil {
		// The scripted crash is a plan event fired through the shared fault
		// machinery, in the same instant and before the probe broadcast.
		eng.Schedule(start, func() {
			r.core.Faults.Fire(Crash{At: cfg.Warmup, P: ti.crash})
			r.await(r.broadcast(int(ti.sender), "probe"), eng.Now())
		})
	}

	// Measure phase, in slices so a diverging system (backlog beyond any
	// legitimate transient) is cut short instead of simulated in quadratic
	// agony. No slice runs once the backlog crossed the bound, so the last
	// reading is the replication's verdict.
	diverged := func() bool {
		return cfg.transient == nil && r.broadcasts-r.deliveredAt0 > DivergenceBacklog
	}
	for eng.Now() < end && !diverged() {
		eng.RunUntil(min(eng.Now().Add(measureSlice), end))
	}
	// Drain phase, in slices so the run can stop early once every awaited
	// delivery landed.
	deadline := end.Add(cfg.Drain)
	for eng.Now() < deadline && r.open > 0 && !diverged() {
		eng.RunUntil(min(eng.Now().Add(drainSlice), deadline))
	}

	// Accumulate in canonical ID order, the order Each visits: floating-
	// point summation is order-sensitive, and any other order would make
	// results differ across runs (and between the two algorithms) in the
	// last bits.
	rs := RepStats{Diverged: diverged(), Undelivered: r.open}
	r.awaited.Each(func(_ proto.MsgID, a *awaitedMsg) {
		if a.delivered {
			rs.Latencies.Add(a.first.Sub(a.sent).Seconds() * 1000) // milliseconds
		}
	})
	return rs
}

// await adds id, A-broadcast at sent, to the awaited set.
func (r *replication) await(id proto.MsgID, sent sim.Time) {
	r.awaited.Put(id, awaitedMsg{sent: sent})
	r.open++
}

// arrival is the workload's callback: one A-broadcast from sender,
// awaited if it falls in the measure window.
func (r *replication) arrival(sender int) {
	id := r.broadcast(sender, nil)
	if now := r.core.Eng.Now(); now >= r.start && now < r.end {
		r.await(id, now)
	}
}

// broadcast A-broadcasts body from sender through the Core, maintains the
// backlog accounting and feeds the broadcast observers. Everything the
// pipeline broadcasts goes through it.
func (r *replication) broadcast(sender int, body any) proto.MsgID {
	id, dests := r.core.Broadcast(sender, body)
	counts := dests == nil
	for _, g := range dests {
		if r.core.Coord.Map().Contains(g, 0) {
			counts = true
			break
		}
	}
	if counts {
		r.broadcasts++
	}
	b := Broadcast{Sender: proto.PID(sender), ID: id, At: r.core.Eng.Now()}
	for _, o := range r.bcastObservers {
		o.ObserveBroadcast(b)
	}
	return id
}

// deliver is the Core's Deliver callback: every A-delivery at every
// process. It maintains the backlog accounting, records the earliest
// delivery of an awaited id and feeds the observers.
func (r *replication) deliver(p proto.PID, id proto.MsgID, _ any, at sim.Time) {
	if p == 0 {
		r.deliveredAt0++
	}
	if a := r.awaited.Get(id); a != nil && !a.delivered {
		a.first, a.delivered = at, true
		r.open--
	}
	d := Delivery{Process: p, ID: id, At: at}
	for _, o := range r.observers {
		o.ObserveDelivery(d)
	}
}
