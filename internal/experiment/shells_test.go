package experiment_test

import (
	"testing"
	"time"

	"repro"
	"repro/internal/experiment"
	"repro/internal/proto"
)

// delivered is one A-delivery as both shells report it.
type delivered struct {
	p  proto.PID
	id proto.MsgID
	at time.Duration
}

// recorder is an experiment.Observer keeping every delivery.
type recorder struct{ out *[]delivered }

func (r recorder) ObserveDelivery(d experiment.Delivery) {
	*r.out = append(*r.out, delivered{d.Process, d.ID, d.At.Duration()})
}

// TestClusterRunsTheRunnersReplication pins what experiment.Core unifies:
// an interactive Cluster given a replication's seed, workload, plans and
// group map is that replication — it delivers exactly the (process, id,
// instant) sequence the Runner's replication delivers.
func TestClusterRunsTheRunnersReplication(t *testing.T) {
	plan := repro.NewFaultPlan().
		Crash(300*time.Millisecond, 2).
		Recover(700*time.Millisecond, 2).
		Partition(900*time.Millisecond, []proto.PID{0, 1, 2}, []proto.PID{3, 4}).
		Heal(1200 * time.Millisecond)
	load := repro.NewLoadPlan().
		Burst(400*time.Millisecond, 200*time.Millisecond, repro.AllSenders, 3).
		Mute(1000*time.Millisecond, 1).
		Unmute(1300*time.Millisecond, 1)
	cases := []struct {
		name string
		cfg  experiment.Config
	}{
		{"FD", experiment.Config{Algorithm: experiment.FD, N: 5}},
		{"GM", experiment.Config{Algorithm: experiment.GM, N: 5}},
		{"FD/plan+load", experiment.Config{Algorithm: experiment.FD, N: 5, Plan: plan, Load: load}},
		{"GM/plan+load", experiment.Config{Algorithm: experiment.GM, N: 5, Plan: plan, Load: load}},
		{"FD/groups/cross=0.2", experiment.Config{Algorithm: experiment.FD, N: 6, Groups: repro.Disjoint(6, 3), CrossShard: 0.2}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			cfg.Throughput = 200
			cfg.QoS = repro.Detectors(10, 0, 0)
			cfg.Seed = 11
			cfg.Warmup = 500 * time.Millisecond
			cfg.Measure = time.Second
			cfg.Drain = 5 * time.Second
			cfg.Replications = 1
			end := cfg.Warmup + cfg.Measure

			var want []delivered
			cfg.Observers = []experiment.ObserverFactory{
				func(point, rep int, _ experiment.Config) experiment.Observer { return recorder{&want} },
			}
			r := experiment.Runner{Workers: 1}
			if res := r.Steady(cfg); res.Diverged {
				t.Fatal("the Runner's replication diverged")
			}

			var got []delivered
			c := repro.NewCluster(repro.ClusterConfig{
				Algorithm:  cfg.Algorithm,
				N:          cfg.N,
				QoS:        cfg.QoS,
				Seed:       experiment.RepSeed(cfg.Seed, 0),
				Plan:       cfg.Plan,
				Throughput: cfg.Throughput,
				Load:       cfg.Load,
				Groups:     cfg.Groups,
				CrossShard: cfg.CrossShard,
				OnDeliver: func(d repro.Delivery) {
					got = append(got, delivered{proto.PID(d.Process), d.ID, d.At})
				},
			})
			c.Run(end)

			// The Runner keeps draining past the measure window; the Cluster
			// stopped at its end.
			for len(want) > 0 && want[len(want)-1].at >= end {
				want = want[:len(want)-1]
			}
			for len(got) > 0 && got[len(got)-1].at >= end {
				got = got[:len(got)-1]
			}
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("cluster delivered %d times before %v, the replication %d times", len(got), end, len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: cluster %+v, replication %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestClusterRunsTheRunnersTransientReplication is the crash-transient
// twin: an interactive Cluster given the replication's seed and workload,
// a CrashAt and a BroadcastAt at Warmup, is the Runner's crash-transient
// replication — same deliveries up to the probe's first, which lands at
// the instant the Runner measured.
func TestClusterRunsTheRunnersTransientReplication(t *testing.T) {
	for _, alg := range []experiment.Algorithm{experiment.FD, experiment.GM} {
		t.Run(alg.String(), func(t *testing.T) {
			var want []delivered
			cfg := experiment.TransientConfig{
				Config: experiment.Config{
					Algorithm:    alg,
					N:            3,
					Throughput:   100,
					QoS:          repro.Detectors(10, 0, 0),
					Seed:         11,
					Warmup:       500 * time.Millisecond,
					Drain:        5 * time.Second,
					Replications: 1,
					Observers: []experiment.ObserverFactory{
						func(point, rep int, _ experiment.Config) experiment.Observer { return recorder{&want} },
					},
				},
				Crash:  0,
				Sender: 1,
			}
			r := experiment.Runner{Workers: 1}
			res := r.Transient(cfg)
			if res.Lost != 0 {
				t.Fatalf("the Runner's replication lost its probe: %+v", res)
			}

			var got []delivered
			var probeAt time.Duration
			c := repro.NewCluster(repro.ClusterConfig{
				Algorithm:  cfg.Algorithm,
				N:          cfg.N,
				QoS:        cfg.QoS,
				Seed:       experiment.RepSeed(cfg.Seed, 0),
				Throughput: cfg.Throughput,
				OnDeliver: func(d repro.Delivery) {
					got = append(got, delivered{proto.PID(d.Process), d.ID, d.At})
					if d.Body == "probe" && probeAt == 0 {
						probeAt = d.At
					}
				},
			})
			c.CrashAt(int(cfg.Crash), cfg.Warmup)
			c.BroadcastAt(int(cfg.Sender), cfg.Warmup, "probe")
			c.Run(cfg.Warmup + cfg.Drain)

			if probeAt == 0 {
				t.Fatal("the cluster never delivered the probe")
			}
			latency := float64(probeAt-cfg.Warmup) / float64(time.Millisecond)
			if latency != res.Latency.Mean {
				t.Errorf("cluster delivered the probe %v ms after the crash, the Runner measured %v ms", latency, res.Latency.Mean)
			}
			// The Runner stops draining in the slice the probe landed in; the
			// Cluster ran on.
			if len(want) == 0 || len(got) < len(want) {
				t.Fatalf("cluster delivered %d times, the replication %d times", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: cluster %+v, replication %+v", i, got[i], want[i])
				}
			}
		})
	}
}
