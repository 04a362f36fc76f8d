// Benchmarks regenerating every figure of the paper's evaluation (§7) at
// reduced resolution — one benchmark per figure panel plus the §7/§8
// ablations and micro-benchmarks of the simulation substrate. The full-
// resolution sweeps live in cmd/figures; these benches exist so
// `go test -bench=.` exercises every experiment end to end and reports
// the measured latency as a custom metric (latency_ms).
//
// Absolute latencies are virtual-time results of the paper's network
// model, not wall-clock performance; ns/op measures the simulator itself.
package repro

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// benchSteady runs one steady-state point per iteration and reports the
// virtual latency of the last run.
func benchSteady(b *testing.B, cfg Config) {
	b.Helper()
	cfg.Warmup = time.Second
	cfg.Measure = 3 * time.Second
	cfg.Drain = 15 * time.Second
	cfg.Replications = 1
	var last Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		last = RunSteady(cfg)
	}
	if last.Stable {
		b.ReportMetric(last.PerMessage.Mean, "latency_ms")
	} else {
		b.ReportMetric(-1, "latency_ms") // unstable point, as in Fig. 6
	}
	b.ReportMetric(float64(last.Messages), "msgs")
}

// benchTransient runs one crash-transient point per iteration.
func benchTransient(b *testing.B, cfg TransientConfig) {
	b.Helper()
	cfg.Warmup = time.Second
	cfg.Drain = 15 * time.Second
	cfg.Replications = 3
	var last TransientResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		last = RunTransient(cfg)
	}
	b.ReportMetric(last.Latency.Mean, "latency_ms")
	b.ReportMetric(last.Overhead.Mean, "overhead_ms")
}

// BenchmarkFig4NormalSteady reproduces Figure 4: latency vs throughput
// with neither crashes nor suspicions; FD and GM are identical here.
func BenchmarkFig4NormalSteady(b *testing.B) {
	for _, alg := range []Algorithm{FD, GM} {
		for _, n := range []int{3, 7} {
			for _, thr := range []float64{10, 300, 600} {
				b.Run(fmt.Sprintf("%v/n=%d/T=%.0f", alg, n, thr), func(b *testing.B) {
					benchSteady(b, Config{Algorithm: alg, N: n, Throughput: thr})
				})
			}
		}
	}
}

// BenchmarkFig5CrashSteady reproduces Figure 5: latency with long-ago
// crashes; more crashes mean less load and, for GM, fewer acks.
func BenchmarkFig5CrashSteady(b *testing.B) {
	panels := []struct {
		n       int
		crashes int
	}{
		{3, 1}, {7, 1}, {7, 3},
	}
	for _, alg := range []Algorithm{FD, GM} {
		for _, p := range panels {
			b.Run(fmt.Sprintf("%v/n=%d/crashes=%d/T=300", alg, p.n, p.crashes), func(b *testing.B) {
				cfg := Config{Algorithm: alg, N: p.n, Throughput: 300}
				for k := 0; k < p.crashes; k++ {
					cfg.Crashed = append(cfg.Crashed, ProcessID(p.n-1-k))
				}
				benchSteady(b, cfg)
			})
		}
	}
}

// BenchmarkFig6SuspicionSteadyTMR reproduces Figure 6: latency vs the
// mistake recurrence time TMR with TM = 0.
func BenchmarkFig6SuspicionSteadyTMR(b *testing.B) {
	for _, alg := range []Algorithm{FD, GM} {
		for _, tmr := range []float64{10, 100, 1000} {
			b.Run(fmt.Sprintf("%v/n=3/T=10/TMR=%.0fms", alg, tmr), func(b *testing.B) {
				benchSteady(b, Config{
					Algorithm: alg, N: 3, Throughput: 10,
					QoS: Detectors(0, tmr, 0),
				})
			})
		}
	}
}

// BenchmarkFig7SuspicionSteadyTM reproduces Figure 7: latency vs the
// mistake duration TM with TMR fixed.
func BenchmarkFig7SuspicionSteadyTM(b *testing.B) {
	for _, alg := range []Algorithm{FD, GM} {
		for _, tm := range []float64{10, 100} {
			b.Run(fmt.Sprintf("%v/n=3/T=10/TMR=1000ms/TM=%.0fms", alg, tm), func(b *testing.B) {
				benchSteady(b, Config{
					Algorithm: alg, N: 3, Throughput: 10,
					QoS: Detectors(0, 1000, tm),
				})
			})
		}
	}
}

// BenchmarkFig8CrashTransient reproduces Figure 8: the latency overhead of
// a probe broadcast at the instant the coordinator/sequencer crashes.
func BenchmarkFig8CrashTransient(b *testing.B) {
	for _, alg := range []Algorithm{FD, GM} {
		for _, n := range []int{3, 7} {
			for _, td := range []float64{0, 10, 100} {
				b.Run(fmt.Sprintf("%v/n=%d/TD=%.0fms/T=100", alg, n, td), func(b *testing.B) {
					benchTransient(b, TransientConfig{
						Config: Config{
							Algorithm: alg, N: n, Throughput: 100,
							QoS: Detectors(td, 0, 0),
						},
						Crash:  0,
						Sender: 1,
					})
				})
			}
		}
	}
}

// BenchmarkAblationRenumbering isolates the §7 coordinator-renumbering
// optimisation: crash-steady with the round-1 coordinator long dead.
func BenchmarkAblationRenumbering(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			benchSteady(b, Config{
				Algorithm: FD, N: 3, Throughput: 300,
				Crashed:         []ProcessID{0},
				DisableRenumber: disable,
			})
		})
	}
}

// BenchmarkAblationNonUniform isolates the §8 uniformity trade-off.
func BenchmarkAblationNonUniform(b *testing.B) {
	for _, alg := range []Algorithm{GM, GMNonUniform} {
		b.Run(alg.String(), func(b *testing.B) {
			benchSteady(b, Config{Algorithm: alg, N: 3, Throughput: 300})
		})
	}
}

// BenchmarkAblationLambda sweeps the network model's λ parameter (§6.1).
func BenchmarkAblationLambda(b *testing.B) {
	for _, lambda := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("lambda=%.1f", lambda), func(b *testing.B) {
			benchSteady(b, Config{Algorithm: FD, N: 3, Throughput: 100, Lambda: lambda})
		})
	}
}

// BenchmarkSweepParallel measures the experiment Runner's worker pool on
// a fixed Fig. 4-shaped sweep (2 algorithms x 3 throughputs x 4
// replications = 24 independent simulations): serial versus all-cores.
// Results are bit-identical at any worker count, so ns/op is the only
// thing that moves; the speedup is roughly min(workers, 24) on idle
// hardware.
func BenchmarkSweepParallel(b *testing.B) {
	sweep := Sweep{
		Base: Config{
			Algorithm:    FD,
			N:            3,
			Warmup:       500 * time.Millisecond,
			Measure:      2 * time.Second,
			Drain:        10 * time.Second,
			Replications: 4,
		},
		Algorithms:  []Algorithm{FD, GM},
		Throughputs: []float64{50, 200, 400},
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := &Runner{Workers: workers}
			var last []Result
			for i := 0; i < b.N; i++ {
				last = r.Sweep(sweep)
			}
			msgs := 0
			for _, res := range last {
				msgs += res.Messages
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkTopologyNScale measures the simulator's cost of a large-N
// point on each topology generator — the -fig nscale workload at n=256.
// ns/op is what topology routing costs the kernel (graph-relayed hops
// multiply scheduler events); latency_ms is the virtual-time result, the
// dissemination cost of the shape itself.
func BenchmarkTopologyNScale(b *testing.B) {
	const n = 256
	shapes := []struct {
		name  string
		build func(n int) *Topology
	}{
		{"fullmesh", FullMesh},
		{"clique", Clique},
		{"ring", Ring},
		{"geo", func(n int) *Topology {
			return Geo(GeoConfig{Sites: 4, PerSite: n / 4, WAN: Wire{Delay: 5 * time.Millisecond}})
		}},
	}
	for _, shape := range shapes {
		b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
			cfg := Config{
				Algorithm:    FD,
				N:            n,
				Throughput:   3,
				Topology:     shape.build(n),
				Warmup:       time.Second,
				Measure:      3 * time.Second,
				Drain:        60 * time.Second,
				Replications: 1,
			}
			var last Result
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				last = RunSteady(cfg)
			}
			if last.Latency.N > 0 {
				b.ReportMetric(last.Latency.Mean, "latency_ms")
			}
			b.ReportMetric(float64(last.Messages), "msgs")
		})
	}
}

// BenchmarkMultiGroupThroughput measures the sharded ordering layer at a
// fixed total offered rate spread over a growing group count — the
// -fig groups panel G1 workload as a kernel benchmark. Each group is a
// Geo site of 3 processes with its own LAN wire; traffic is shard-local,
// so the per-group rate falls as 1/groups while the aggregate stays
// fixed. ns/op is what the group layer costs the simulator as the
// instance count grows; latency_ms is the virtual-time result, falling
// as each shard's wire decongests.
func BenchmarkMultiGroupThroughput(b *testing.B) {
	const totalRate = 240.0
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("groups=%d", k), func(b *testing.B) {
			t := Geo(GeoConfig{Sites: k, PerSite: 3, WAN: Wire{Delay: 5 * time.Millisecond}})
			cfg := Config{
				Algorithm:    FD,
				N:            3 * k,
				Throughput:   totalRate,
				Topology:     t,
				Groups:       GroupsFromSites(t),
				Warmup:       time.Second,
				Measure:      3 * time.Second,
				Drain:        15 * time.Second,
				Replications: 1,
			}
			b.ReportAllocs()
			var last Result
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				last = RunSteady(cfg)
			}
			if last.Latency.N > 0 {
				b.ReportMetric(last.Latency.Mean, "latency_ms")
			}
			b.ReportMetric(float64(last.Messages), "msgs")
		})
	}
}

// BenchmarkCollectorModes measures the distribution carrier the
// experiments aggregate into: exact mode retains every observation,
// sketch mode (Config.DistSketch) folds them into bounded log buckets.
// One op adds 1000 heavy-tailed observations to a fresh collector and
// reads its quantiles; bytes/op is the number that motivates sketch
// mode for multi-million-message points.
func BenchmarkCollectorModes(b *testing.B) {
	obs := make([]float64, 1000)
	x := uint64(99)
	for i := range obs {
		x = x*6364136223846793005 + 1442695040888963407
		obs[i] = 0.1 * math.Pow(10, 4*float64(x>>11)/float64(1<<53))
	}
	run := func(b *testing.B, mk func() Collector) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := mk()
			for _, v := range obs {
				c.Add(v)
			}
			if q := c.Quantiles(); q.N != len(obs) {
				b.Fatalf("collected %d observations, want %d", q.N, len(obs))
			}
		}
	}
	b.Run("exact", func(b *testing.B) { run(b, func() Collector { return Collector{} }) })
	b.Run("sketch/alpha=0.01", func(b *testing.B) { run(b, func() Collector { return NewSketchCollector(0.01) }) })
}

// BenchmarkSimEngine measures the discrete-event kernel's closure form
// (Schedule/After): the cancellable-handle API protocol timers use. Each
// op still allocates its *Event handle; the closure-free form below does
// not.
func BenchmarkSimEngine(b *testing.B) {
	eng := sim.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(time.Millisecond, func() {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

// countingHandler is a minimal sim.MsgHandler for kernel benchmarks.
type countingHandler struct{ n int }

func (h *countingHandler) HandleMsg(op uint8, a, b int, payload any) { h.n++ }

// BenchmarkSimEngineMsg measures the closure-free form (ScheduleMsg):
// typed records recycled through the engine's free list, the form the
// network model's per-message hot path runs on. Zero allocations once the
// free list is warm.
func BenchmarkSimEngineMsg(b *testing.B) {
	eng := sim.New()
	h := &countingHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.AfterMsg(time.Millisecond, h, 0, i, i, nil)
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
	if h.n != b.N {
		b.Fatalf("handled %d events, want %d", h.n, b.N)
	}
}

// BenchmarkNetModelMulticast measures the contention model's message
// pipeline: one multicast fan-out to 7 processes per iteration. The one
// remaining alloc/op is the benchmark boxing its int payload.
func BenchmarkNetModelMulticast(b *testing.B) {
	eng := sim.New()
	nw := netmodel.New(eng, netmodel.DefaultConfig(8), func(int, int, any) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Multicast(i%8, i)
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkClusterBroadcast measures the full stack: one atomic broadcast
// ordered and delivered on a 3-process FD cluster per iteration.
func BenchmarkClusterBroadcast(b *testing.B) {
	delivered := 0
	c := NewCluster(ClusterConfig{
		Algorithm: FD,
		N:         3,
		OnDeliver: func(Delivery) { delivered++ },
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Broadcast(i%3, i)
		c.Run(20 * time.Millisecond)
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no deliveries")
	}
}

// BenchmarkExtensionHeartbeatFD compares the abstract QoS detector with
// the concrete heartbeat detector (whose traffic shares the network) at
// the same workload.
func BenchmarkExtensionHeartbeatFD(b *testing.B) {
	run := func(b *testing.B, hb *HeartbeatConfig) {
		var latency time.Duration
		count := 0
		for i := 0; i < b.N; i++ {
			first := make(map[MessageID]bool)
			sent := make(map[MessageID]time.Duration)
			c := NewCluster(ClusterConfig{
				Algorithm: FD,
				N:         3,
				Seed:      uint64(i + 1),
				Heartbeat: hb,
				OnDeliver: func(d Delivery) {
					if !first[d.ID] {
						first[d.ID] = true
						if t0, ok := sent[d.ID]; ok {
							latency += d.At - t0
							count++
						}
					}
				},
			})
			for k := 0; k < 100; k++ {
				at := time.Duration(k) * 5 * time.Millisecond
				sent[MessageID{Origin: ProcessID(k % 3), Seq: uint64(k/3 + 1)}] = at
				c.BroadcastAt(k%3, at, k)
			}
			c.Run(2 * time.Second)
		}
		if count > 0 {
			b.ReportMetric(float64(latency.Microseconds())/float64(count)/1000, "latency_ms")
		}
	}
	b.Run("qos-model", func(b *testing.B) { run(b, nil) })
	b.Run("heartbeat-10ms-30ms", func(b *testing.B) {
		run(b, &HeartbeatConfig{Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond})
	})
}
