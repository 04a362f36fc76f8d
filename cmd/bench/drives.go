package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/consensus"
	"repro/internal/experiment"
	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/rbcast"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	loadgen "repro/internal/workload"
)

// driveRepeats is how often each drive of a full run runs; the median is
// reported.
const driveRepeats = 3

// driver runs the isolated drives: fixed-count loops over one layer's
// public functions, timed from outside. Each drive is a span under
// "drives".
type driver struct {
	log    *spanLog
	parent int
	// scale shrinks the loop counts and repeats is how often each drive
	// runs; the smoke test runs a small fraction of the full counts, once.
	scale   float64
	repeats int
	seed    uint64
	m       metrics
	// problems collects drives whose outputs were wrong.
	problems []string
}

func (d *driver) ops(n int) int {
	if scaled := int(float64(n) * d.scale); scaled > 1 {
		return scaled
	}
	return 1
}

func (d *driver) failf(format string, args ...any) {
	d.problems = append(d.problems, fmt.Sprintf(format, args...))
}

// span opens a span under "drives"; call the result to close it.
func (d *driver) span(name string) (done func()) {
	_, done = d.log.open(name, d.parent, 0)
	return done
}

// measure times a loop of n operations: prep builds fresh state outside
// the timed region and returns the loop. It returns the median
// nanoseconds and heap allocations per operation over d.repeats runs.
func (d *driver) measure(name string, n int, prep func() func()) (ns, allocs float64) {
	defer d.span(name)()
	var nss, allocss []float64
	var before, after runtime.MemStats
	for i := 0; i < d.repeats; i++ {
		loop := prep()
		runtime.ReadMemStats(&before)
		start := time.Now()
		loop()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		nss = append(nss, float64(wall)/float64(n))
		allocss = append(allocss, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return median(nss), median(allocss)
}

// countingHandler is a minimal sim.MsgHandler.
type countingHandler struct{ n int }

func (h *countingHandler) HandleMsg(uint8, int, int, any) { h.n++ }

func (d *driver) simDrives() {
	n := d.ops(1_000_000)
	ns, allocs := d.measure("sim.events", n, func() func() {
		eng := sim.New()
		h := &countingHandler{}
		return func() {
			for i := 0; i < n; i++ {
				eng.AfterMsg(time.Millisecond, h, 0, i, i, nil)
				if i%1024 == 1023 {
					eng.Run()
				}
			}
			eng.Run()
			if h.n != n {
				d.failf("sim drive handled %d of %d events", h.n, n)
			}
		}
	})
	d.m.set("sim.ns_per_event", ns, "ns")
	d.m.set("sim.allocs_per_event", allocs, "allocs")

	// The protocol-timer path: arm a timer, cancel it before it fires.
	nt := d.ops(200_000)
	ns, _ = d.measure("sim.timers", nt, func() func() {
		eng := sim.New()
		fire := func() {}
		return func() {
			for i := 0; i < nt; i++ {
				eng.After(time.Millisecond, fire).Cancel()
			}
		}
	})
	d.m.set("sim.ns_per_timer", ns, "ns")
}

// eventsPerMsg runs cfg's system for two virtual seconds under the
// paper's Poisson load, built directly on experiment.NewCore, and returns
// engine events per delivered message id. It is exact for a seed.
func eventsPerMsg(cfg repro.Config, seed uint64) float64 {
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = 1
	}
	delivered := make(map[repro.MessageID]struct{})
	core := experiment.NewCore(experiment.CoreConfig{
		Algorithm:  cfg.Algorithm,
		N:          cfg.N,
		Lambda:     lambda,
		Topology:   cfg.Topology,
		Groups:     cfg.Groups,
		QoS:        cfg.QoS,
		Detector:   cfg.Detector,
		Renumber:   !cfg.DisableRenumber,
		Seed:       seed,
		PreCrashed: cfg.Crashed,
		Deliver: func(_ proto.PID, id proto.MsgID, _ any, _ sim.Time) {
			delivered[id] = struct{}{}
		},
	})
	crashed := make(map[int]bool)
	for _, p := range cfg.Crashed {
		crashed[int(p)] = true
	}
	var senders []int
	for p := 0; p < cfg.N; p++ {
		if !crashed[p] {
			senders = append(senders, p)
		}
	}
	loadgen.Spread(core.Eng, sim.NewRand(seed).Fork("load"), cfg.Throughput, cfg.N, senders, func(s int) {
		core.SentBy[s]++
		core.Bcast[s](nil)
	})
	core.Eng.RunUntil(sim.Time(0).Add(2 * time.Second))
	return ratio(float64(core.Eng.Executed()), float64(len(delivered)))
}

// parallelSim prices the intra-simulation parallel mode on the one
// shipped topology that splits into conflict domains.
func (d *driver) parallelSim() {
	cfg := repro.Config{
		Algorithm:    repro.FD,
		N:            8,
		Topology:     repro.OneWayRing(8),
		QoS:          repro.Detectors(10, 0, 0),
		Throughput:   100,
		Warmup:       500 * time.Millisecond,
		Measure:      2 * time.Second,
		Drain:        10 * time.Second,
		Replications: 1,
		Seed:         d.seed,
	}
	run := func(name string, cfg repro.Config) (ns, allocs float64, msgs int) {
		ns, allocs = d.measure(name, 1, func() func() {
			return func() {
				r := repro.Runner{Workers: 1}
				msgs = r.Steady(cfg).Messages
			}
		})
		return ns, allocs, msgs
	}
	serialNs, serialAllocs, serialMsgs := run("sim.psim_serial", cfg)
	cfg.ParallelSim, cfg.SimWorkers = true, 2
	parNs, parAllocs, parMsgs := run("sim.psim_w2", cfg)
	if serialMsgs != parMsgs {
		d.failf("ParallelSim measured %d messages, serial %d", parMsgs, serialMsgs)
	}
	speedup := ratio(serialNs, parNs)
	if runtime.NumCPU() < 2 {
		speedup = 0 // single-core: two workers on one CPU is not a speed-up measurement
	}
	d.m.set("sim.psim_speedup_w2", speedup, "ratio")
	d.m.set("sim.psim_allocs_ratio", ratio(parAllocs, serialAllocs), "ratio")
}

func geo4x8() *topo.Topology {
	return topo.Geo(topo.GeoConfig{Sites: 4, PerSite: 8, WAN: wan5ms})
}

func (d *driver) topoDrives() {
	n := d.ops(20)
	ns, _ := d.measure("topo.routing_compile", n, func() func() {
		fresh := make([]*topo.Topology, 0, 3*n)
		for i := 0; i < n; i++ {
			fresh = append(fresh, topo.Ring(32), geo4x8(), topo.Clique(32))
		}
		return func() {
			for _, t := range fresh {
				t.Routing()
			}
		}
	})
	d.m.set("topo.routing_compile_us", ns/1e3, "us")

	np := d.ops(500)
	ns, _ = d.measure("topo.pruneset", np, func() func() {
		rt := geo4x8().Routing()
		members := []int{0, 8, 16}
		return func() {
			for i := 0; i < np; i++ {
				rt.PruneSet(members)
			}
		}
	})
	d.m.set("topo.pruneset_us", ns/1e3, "us")
}

func (d *driver) netmodelDrives() {
	var payload any = "payload"
	multicast := func(name string, n int, cfg netmodel.Config) (nsPerOp, allocs float64, c netmodel.Counters) {
		nsPerOp, allocs = d.measure(name, n, func() func() {
			eng := sim.New()
			nw := netmodel.New(eng, cfg, func(int, int, any) {})
			return func() {
				for i := 0; i < n; i++ {
					nw.Multicast(i%cfg.N, payload)
					if i%256 == 255 {
						eng.Run()
					}
				}
				eng.Run()
				c = nw.Counters()
			}
		})
		return nsPerOp, allocs, c
	}
	n := d.ops(50_000)
	ns, allocs, c := multicast("netmodel.mesh", n, netmodel.DefaultConfig(8))
	d.m.set("netmodel.ns_per_delivery", ratio(ns*float64(n), float64(c.Deliveries)), "ns")
	d.m.set("netmodel.allocs_per_multicast", allocs, "allocs")

	nr := d.ops(3000)
	ring := netmodel.DefaultConfig(32)
	ring.Topology = topo.Ring(32)
	ns, _, c = multicast("netmodel.ring", nr, ring)
	d.m.set("netmodel.ns_per_relay_hop", ratio(ns*float64(nr), float64(c.WireSlots)), "ns")
}

func (d *driver) workloadDrive() {
	n := d.ops(200_000)
	arrivals := 0
	ns, _ := d.measure("workload.poisson", n, func() func() {
		eng := sim.New()
		arrivals = 0
		loadgen.NewPoisson(eng, sim.NewRand(d.seed), 1000, func() { arrivals++ })
		// 1000 arrivals per virtual second: n arrivals take about n ms.
		return func() { eng.RunUntil(sim.Time(0).Add(time.Duration(n) * time.Millisecond)) }
	})
	d.m.set("workload.ns_per_arrival", ratio(ns*float64(n), float64(arrivals)), "ns")
}

func (d *driver) fdDrive() {
	n := d.ops(100_000)
	var executed uint64
	ns, _ := d.measure("fd.mistakes", n, func() func() {
		eng := sim.New()
		fd.NewSim(eng, 3, fd.QoS{TMR: 10 * time.Millisecond}, sim.NewRand(d.seed))
		// Six monitor pairs, one mistake per pair every 10 ms on average.
		horizon := time.Duration(n/6+1) * 10 * time.Millisecond
		return func() { executed = eng.RunUntil(sim.Time(0).Add(horizon)) }
	})
	d.m.set("fd.ns_per_mistake", ratio(ns*float64(n), float64(executed)), "ns")
}

// rbFabric joins broadcasters by an in-memory FIFO that honours the
// pooled-payload protocol: one reference per queued copy, released after
// the receiver returns.
type rbFabric struct {
	bcs   []*rbcast.Broadcaster
	queue []rbCopy
}

type rbCopy struct {
	to int
	m  *rbcast.Msg
}

func newRBFabric(n int) *rbFabric {
	f := &rbFabric{bcs: make([]*rbcast.Broadcaster, n)}
	for p := 0; p < n; p++ {
		f.bcs[p] = rbcast.New(rbcast.Config{
			Self: proto.PID(p),
			Multicast: func(m *rbcast.Msg) {
				m.Retain(n)
				for q := 0; q < n; q++ {
					f.queue = append(f.queue, rbCopy{to: q, m: m})
				}
			},
			Deliver: func(proto.MsgID, any) {},
		})
	}
	return f
}

func (f *rbFabric) run() {
	for i := 0; i < len(f.queue); i++ {
		c := f.queue[i]
		f.bcs[c.to].OnMessage(*c.m)
		c.m.Release()
	}
	f.queue = f.queue[:0]
}

func (d *driver) rbcastDrive() {
	n := d.ops(100_000)
	ns, allocs := d.measure("rbcast.broadcast", n, func() func() {
		f := newRBFabric(3)
		return func() {
			for i := 0; i < n; i++ {
				id := f.bcs[i%3].Broadcast(nil)
				f.run()
				for _, b := range f.bcs {
					b.MarkStable(id)
				}
			}
		}
	})
	d.m.set("rbcast.ns_per_broadcast", ns, "ns")
	d.m.set("rbcast.allocs_per_broadcast", allocs, "allocs")
}

// consNet joins consensus instances by an in-memory FIFO transport.
type consNet struct {
	insts   []*consensus.Instance
	cfgs    []consensus.Config
	trs     []consTransport
	queue   []consQueued
	decided int
}

type consQueued struct {
	from, to proto.PID
	m        consensus.Msg
}

type consTransport struct {
	net  *consNet
	self proto.PID
}

func (t consTransport) Send(to proto.PID, m consensus.Msg) {
	t.net.queue = append(t.net.queue, consQueued{t.self, to, m})
}

func (t consTransport) Multicast(m consensus.Msg) {
	for p := range t.net.insts {
		t.net.queue = append(t.net.queue, consQueued{t.self, proto.PID(p), m})
	}
}

// newConsNet builds n instances; when suspectFirst is set every other
// process suspects the round-1 coordinator, so deciding takes two rounds.
func newConsNet(n int, suspectFirst bool) *consNet {
	net := &consNet{
		insts: make([]*consensus.Instance, n),
		cfgs:  make([]consensus.Config, n),
		trs:   make([]consTransport, n),
	}
	parts := make([]proto.PID, n)
	for p := range parts {
		parts[p] = proto.PID(p)
	}
	for p := 0; p < n; p++ {
		self := proto.PID(p)
		net.trs[p] = consTransport{net: net, self: self}
		net.cfgs[p] = consensus.Config{
			Self:         self,
			Participants: parts,
			FirstCoord:   0,
			Suspects:     func(q proto.PID) bool { return suspectFirst && q == 0 && self != 0 },
			Decide:       func(consensus.Value, proto.PID) { net.decided++ },
		}
		net.insts[p] = consensus.New(net.cfgs[p], net.trs[p])
	}
	return net
}

// instance runs one consensus execution to decision on recycled
// instances.
func (net *consNet) instance(v consensus.Value) {
	for p, in := range net.insts {
		in.Reset(net.cfgs[p], net.trs[p])
	}
	for _, in := range net.insts {
		in.Start(v)
	}
	for i := 0; i < len(net.queue); i++ {
		q := net.queue[i]
		net.insts[q.to].OnMessage(q.from, q.m)
	}
	net.queue = net.queue[:0]
}

func (d *driver) consensusDrives() {
	var value consensus.Value = "value"
	run := func(name string, n, procs int, suspect bool) (ns, allocs float64) {
		return d.measure(name, n, func() func() {
			net := newConsNet(procs, suspect)
			return func() {
				for i := 0; i < n; i++ {
					net.instance(value)
				}
				if net.decided != n*procs {
					d.failf("%s: %d decisions from %d instances of %d processes", name, net.decided, n, procs)
				}
			}
		})
	}
	n := d.ops(50_000)
	ns, allocs := run("consensus.n3", n, 3, false)
	d.m.set("consensus.ns_per_instance_n3", ns, "ns")
	d.m.set("consensus.allocs_per_instance", allocs, "allocs")
	ns, _ = run("consensus.n7", n/2, 7, false)
	d.m.set("consensus.ns_per_instance_n7", ns, "ns")
	ns, _ = run("consensus.suspect", n/2, 3, true)
	d.m.set("consensus.ns_per_instance_suspect", ns, "ns")
}

// stackDrives orders one message at a time on a warm interactive cluster:
// the whole stack, network model included.
func (d *driver) stackDrives() {
	for _, alg := range algs {
		n := d.ops(8000)
		delivered := 0
		ns, allocs := d.measure("stack."+alg.String(), n, func() func() {
			c := repro.NewCluster(repro.ClusterConfig{
				Algorithm: alg,
				N:         3,
				OnDeliver: func(repro.Delivery) { delivered++ },
			})
			abcast := func(i int) {
				c.Broadcast(i%3, nil)
				c.Run(20 * time.Millisecond)
			}
			for i := 0; i < 1000; i++ {
				abcast(i)
			}
			delivered = 0
			return func() {
				for i := 0; i < n; i++ {
					abcast(i)
				}
				if delivered != 3*n {
					d.failf("stack drive %v: %d deliveries of %d broadcasts", alg, delivered, n)
				}
			}
		})
		prefix := "stack.fd."
		if alg == repro.GM {
			prefix = "stack.gm."
		}
		d.m.set(prefix+"ns_per_abcast", ns, "ns")
		d.m.set(prefix+"allocs_per_abcast", allocs, "allocs")
	}
}

// groupsDrives multicasts to one and to two groups of a sharded cluster.
func (d *driver) groupsDrives() {
	run := func(name string, dests []int, copies int) float64 {
		n := d.ops(3000)
		delivered := 0
		ns, _ := d.measure(name, n, func() func() {
			c := repro.NewCluster(repro.ClusterConfig{
				Algorithm: repro.FD,
				N:         6,
				Groups:    repro.Disjoint(6, 2),
				OnDeliver: func(repro.Delivery) { delivered++ },
			})
			mcast := func(i int) {
				c.Multicast(i%3, dests, nil)
				c.Run(20 * time.Millisecond)
			}
			for i := 0; i < 500; i++ {
				mcast(i)
			}
			delivered = 0
			return func() {
				for i := 0; i < n; i++ {
					mcast(i)
				}
				if delivered != copies*n {
					d.failf("%s: %d deliveries of %d multicasts", name, delivered, n)
				}
			}
		})
		return ns
	}
	d.m.set("groups.ns_per_mcast_local", run("groups.local", []int{0}, 3), "ns")
	d.m.set("groups.ns_per_mcast_cross", run("groups.cross", []int{0, 1}, 6), "ns")
}

func (d *driver) experimentDrives() {
	newCore := func(name string, n int, cfg experiment.CoreConfig) float64 {
		cfg.Lambda, cfg.Renumber, cfg.Seed = 1, true, d.seed
		cfg.Deliver = func(proto.PID, proto.MsgID, any, sim.Time) {}
		ns, _ := d.measure(name, n, func() func() {
			return func() {
				for i := 0; i < n; i++ {
					experiment.NewCore(cfg)
				}
			}
		})
		return ns / 1e3
	}
	n := d.ops(2000)
	d.m.set("experiment.newcore_us_n3", newCore("experiment.newcore_n3", n, experiment.CoreConfig{Algorithm: repro.FD, N: 3}), "us")
	d.m.set("experiment.newcore_us_n7", newCore("experiment.newcore_n7", n, experiment.CoreConfig{Algorithm: repro.GM, N: 7}), "us")
	d.m.set("experiment.newcore_us_n32", newCore("experiment.newcore_n32", n/10+1, experiment.CoreConfig{Algorithm: repro.FD, N: 32, Topology: topo.Ring(32)}), "us")

	// A replication that orders nothing: everything it allocates is
	// per-replication fixed cost.
	nr := d.ops(500)
	idle := repro.Config{
		Algorithm:    repro.FD,
		N:            3,
		Warmup:       100 * time.Millisecond,
		Measure:      200 * time.Millisecond,
		Drain:        time.Second,
		Replications: 1,
		Seed:         d.seed,
	}
	_, allocs := d.measure("experiment.cold_rep", nr, func() func() {
		r := repro.Runner{Workers: 1}
		return func() {
			for i := 0; i < nr; i++ {
				r.Steady(idle)
			}
		}
	})
	d.m.set("experiment.cold_allocs_per_rep", allocs, "allocs")
}

func (d *driver) statsDrives() {
	n := d.ops(100_000)
	obs := make([]float64, n)
	x := d.seed
	for i := range obs {
		x = x*6364136223846793005 + 1442695040888963407
		obs[i] = 0.1 * math.Pow(10, 4*float64(x>>11)/float64(1<<53)) // heavy-tailed over four decades
	}
	add := func(name string, mk func() stats.Collector) float64 {
		ns, _ := d.measure(name, n, func() func() {
			c := mk()
			return func() {
				for _, v := range obs {
					c.Add(v)
				}
			}
		})
		return ns
	}
	d.m.set("stats.ns_per_add_exact", add("stats.add_exact", func() stats.Collector { return stats.Collector{} }), "ns")
	d.m.set("stats.ns_per_add_sketch", add("stats.add_sketch", func() stats.Collector { return stats.NewSketchCollector(0.01) }), "ns")

	var lo, hi, all stats.Collector
	for i, v := range obs {
		if i < n/2 {
			lo.Add(v)
		} else {
			hi.Add(v)
		}
		all.Add(v)
	}
	nm := d.ops(50)
	ns, _ := d.measure("stats.merge", nm, func() func() {
		return func() {
			for i := 0; i < nm; i++ {
				var dst stats.Collector
				dst.Merge(&lo)
				dst.Merge(&hi)
			}
		}
	})
	d.m.set("stats.merge_us", ns/1e3, "us")
	nq := d.ops(3)
	ns, _ = d.measure("stats.quantiles", nq, func() func() {
		return func() {
			for i := 0; i < nq; i++ {
				if q := all.Quantiles(); q.N != n {
					d.failf("stats drive: quantiles over %d of %d observations", q.N, n)
				}
			}
		}
	})
	d.m.set("stats.quantiles_us", ns/1e3, "us")
}

// run executes every drive that does not depend on the workload.
func (d *driver) run() {
	d.simDrives()
	d.parallelSim()
	d.topoDrives()
	d.netmodelDrives()
	d.workloadDrive()
	d.fdDrive()
	d.rbcastDrive()
	d.consensusDrives()
	d.stackDrives()
	d.groupsDrives()
	d.experimentDrives()
	d.statsDrives()
}
