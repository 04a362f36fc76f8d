package repro

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// The golden digests lock the exact event-by-event behaviour of the
// simulation kernel: each value is an FNV-1a hash of the full network
// trace and delivery trace of one fixed-seed scenario. They were recorded
// before the pooled-event kernel refactor and must never change — any
// perf work on internal/sim or internal/netmodel has to reproduce the
// simulations bit for bit. If a digest changes, the kernel reordered,
// dropped or retimed events; that is a correctness bug, not a baseline to
// re-record.
var goldenDigests = map[string]uint64{
	"FD/n=3/crash+suspicions":    0x4d19b1ab88942220,
	"GM/n=3/crash+suspicions":    0x70317ee7a75ddcc7,
	"GM-nu/n=3/normal":           0xa4d74339a5f5a8ae,
	"FD/n=7/precrash+suspicions": 0x090d2cc8134a61be,
	"GM/n=7/precrash+suspicions": 0x3d7235f83b1428a1,
	"FD/n=3/heartbeat-detector":  0x3802cc0e268ea258,
	"FD/n=3/lambda=2/late-crash": 0x15550c11148ee48d,
	"FD/n=2/minimal":             0xa530831d7d3fd72b,
	"GM/n=5/cascade-crashes":     0xa312c893cf725274,
	"GM/n=5/partition-heal":      0x566979f693c552b8,
	"FD/n=3/churn-recover":       0x38d9f98d7d141577,
	"FD/n=3/long-outage":         0x8c5efb84de1e0fd1,
	// Topology-era scenarios: recorded when internal/topo landed, pinning
	// graph-routed wire traces (relay hops, per-wire occupancy, WAN cuts).
	"FD/n=8/ring":                   0x3fac255812e08916,
	"GM/n=9/geo-wan-partition-heal": 0x17e9eb344144517a,
	// Groups-era scenarios: recorded when internal/groups landed, pinning
	// group-addressed dissemination and cross-group timestamp merging.
	"FD/n=6/groups-disjoint-crash": 0x765b818e418f0638,
	"GM/n=7/groups-chained-cross":  0x2978f936b1b229c1,
	// Directed-topology scenario: the one graph whose wires each have a
	// single transmitter, so relays go hop by hop the one way round.
	"FD/n=6/one-way-ring-crash": 0x6a65ba96c1dc1e43,
}

// goldenScenario drives one fully scripted cluster and folds every
// observable event — message lifecycle points, deliveries, view changes
// and final counters — into a single digest.
type goldenScenario struct {
	name string
	cfg  ClusterConfig
	// drive scripts broadcasts, crashes and suspicions before the run.
	drive func(c *Cluster)
	run   time.Duration
}

func goldenScenarios() []goldenScenario {
	// Broadcast schedules use co-prime gaps so arrivals interleave with
	// protocol traffic at awkward instants.
	script := func(n int, msgs int) func(c *Cluster) {
		return func(c *Cluster) {
			for i := 0; i < msgs; i++ {
				c.BroadcastAt(i%n, time.Duration(i)*7*time.Millisecond, i)
			}
		}
	}
	return []goldenScenario{
		{
			name: "FD/n=3/crash+suspicions",
			cfg:  ClusterConfig{Algorithm: FD, N: 3, Seed: 41, QoS: Detectors(10, 0, 0)},
			drive: func(c *Cluster) {
				script(3, 40)(c)
				c.SuspectAt(1, 0, 50*time.Millisecond, 30*time.Millisecond)
				c.SuspectAt(2, 0, 95*time.Millisecond, 0)
				c.CrashAt(2, 160*time.Millisecond)
			},
			run: 2 * time.Second,
		},
		{
			name: "GM/n=3/crash+suspicions",
			cfg:  ClusterConfig{Algorithm: GM, N: 3, Seed: 41, QoS: Detectors(10, 0, 0)},
			drive: func(c *Cluster) {
				script(3, 40)(c)
				c.SuspectAt(1, 2, 50*time.Millisecond, 30*time.Millisecond)
				c.CrashAt(2, 160*time.Millisecond)
			},
			run: 2 * time.Second,
		},
		{
			name:  "GM-nu/n=3/normal",
			cfg:   ClusterConfig{Algorithm: GMNonUniform, N: 3, Seed: 7},
			drive: script(3, 30),
			run:   time.Second,
		},
		{
			name: "FD/n=7/precrash+suspicions",
			cfg: ClusterConfig{
				Algorithm: FD, N: 7, Seed: 13,
				PreCrashed: []int{5, 6},
				QoS:        Detectors(0, 400, 20),
			},
			drive: script(5, 35),
			run:   2 * time.Second,
		},
		{
			name: "GM/n=7/precrash+suspicions",
			cfg: ClusterConfig{
				Algorithm: GM, N: 7, Seed: 13,
				PreCrashed: []int{5, 6},
				QoS:        Detectors(0, 400, 20),
			},
			drive: script(5, 35),
			run:   2 * time.Second,
		},
		{
			name: "FD/n=3/heartbeat-detector",
			cfg: ClusterConfig{
				Algorithm: FD, N: 3, Seed: 23,
				Heartbeat: &HeartbeatConfig{Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond},
			},
			drive: func(c *Cluster) {
				script(3, 25)(c)
				c.CrashAt(0, 90*time.Millisecond)
			},
			run: time.Second,
		},
		{
			name: "FD/n=3/lambda=2/late-crash",
			cfg:  ClusterConfig{Algorithm: FD, N: 3, Seed: 3, Lambda: 2, QoS: Detectors(20, 0, 0)},
			drive: func(c *Cluster) {
				script(3, 30)(c)
				c.CrashAt(1, 111*time.Millisecond)
			},
			run: 2 * time.Second,
		},
		{
			// N=2 pins the one-destination multicast trace: the wire hop
			// of a 2-process multicast records the concrete destination.
			name: "FD/n=2/minimal",
			cfg:  ClusterConfig{Algorithm: FD, N: 2, Seed: 5, QoS: Detectors(10, 0, 0)},
			drive: func(c *Cluster) {
				script(2, 20)(c)
				c.SuspectAt(1, 0, 60*time.Millisecond, 10*time.Millisecond)
			},
			run: time.Second,
		},
		{
			name: "GM/n=5/cascade-crashes",
			cfg:  ClusterConfig{Algorithm: GM, N: 5, Seed: 99, QoS: Detectors(5, 0, 0)},
			drive: func(c *Cluster) {
				script(5, 45)(c)
				c.CrashAt(4, 80*time.Millisecond)
				c.CrashAt(3, 200*time.Millisecond)
			},
			run: 3 * time.Second,
		},
		{
			// Plan-driven partition: the minority is cut off mid-run and
			// healed; GM excludes it, welcomes it back with state transfer
			// and recovers its swallowed messages.
			name: "GM/n=5/partition-heal",
			cfg: ClusterConfig{
				Algorithm: GM, N: 5, Seed: 17, QoS: Detectors(10, 0, 0),
				Plan: NewFaultPlan().
					Partition(120*time.Millisecond, []ProcessID{0, 1, 2}, []ProcessID{3, 4}).
					Heal(320 * time.Millisecond),
			},
			drive: script(5, 50),
			run:   3 * time.Second,
		},
		{
			// An outage spanning far more than the consensus instance
			// window (64): peers garbage-collect everything p2 misses, so
			// its recovery exercises the decision-log catch-up protocol —
			// suffix request, ordered re-delivery, then live traffic.
			name: "FD/n=3/long-outage",
			cfg: ClusterConfig{
				Algorithm: FD, N: 3, Seed: 37, QoS: Detectors(10, 0, 0),
				Plan: NewFaultPlan().
					Crash(60*time.Millisecond, 2).
					Recover(2100*time.Millisecond, 2),
			},
			drive: func(c *Cluster) {
				for i := 0; i < 120; i++ {
					c.BroadcastAt(i%2, time.Duration(80+15*i)*time.Millisecond, i)
				}
				for i := 0; i < 6; i++ {
					c.BroadcastAt(i%3, time.Duration(2200+30*i)*time.Millisecond, 1000+i)
				}
			},
			run: 8 * time.Second,
		},
		{
			// Ring topology: every multicast propagates hop by hop both
			// ways around, every far unicast relays along the shorter arc.
			// Pins the topology-routed wire trace (relay hops, per-wire
			// occupancy) bit for bit.
			name: "FD/n=8/ring",
			cfg: ClusterConfig{
				Algorithm: FD, N: 8, Seed: 53, QoS: Detectors(10, 0, 0),
				Topology: Ring(8),
			},
			drive: script(8, 30),
			run:   3 * time.Second,
		},
		{
			// Geo topology under a WAN cut: three 3-process sites joined
			// by 5ms WAN links; site 2 is cut along the WAN mid-run and
			// healed. GM excludes the site and welcomes it back via state
			// transfer, all over gateway-relayed routes.
			name: "GM/n=9/geo-wan-partition-heal",
			cfg: func() ClusterConfig {
				geo := Geo(GeoConfig{
					Sites: 3, PerSite: 3,
					WAN: Wire{Delay: 5 * time.Millisecond},
				})
				return ClusterConfig{
					Algorithm: GM, N: 9, Seed: 61, QoS: Detectors(10, 0, 0),
					Topology: geo,
					Plan: NewFaultPlan().
						PartitionSites(150*time.Millisecond, geo, 2).
						Heal(400 * time.Millisecond),
				}
			}(),
			drive: script(9, 40),
			run:   3 * time.Second,
		},
		{
			// Two disjoint ordering groups sharing one wire: each shard
			// runs its own FD stack, the crash of p5 is detected and
			// handled inside group 1 alone, and a handful of cross-group
			// multicasts exercise the timestamp merge. Pins the group-
			// addressed dissemination trace (members-only wire hops) and
			// the per-group protocol interleaving bit for bit.
			name: "FD/n=6/groups-disjoint-crash",
			cfg: ClusterConfig{
				Algorithm: FD, N: 6, Seed: 43, QoS: Detectors(10, 0, 0),
				Groups: Disjoint(6, 2),
			},
			drive: func(c *Cluster) {
				script(6, 36)(c)
				for i := 0; i < 5; i++ {
					c.MulticastAt(i, time.Duration(30+31*i)*time.Millisecond, []int{0, 1}, 100+i)
				}
				c.CrashAt(5, 130*time.Millisecond)
			},
			run: 2 * time.Second,
		},
		{
			// Three chained GM groups, adjacent pairs bridged by one
			// shared process: shard-local traffic everywhere plus cross-
			// group multicasts over every destination combination,
			// including all three groups at once. Pins the cross-group
			// timestamp-merge ordering trace bit for bit.
			name: "GM/n=7/groups-chained-cross",
			cfg: ClusterConfig{
				Algorithm: GM, N: 7, Seed: 47, QoS: Detectors(10, 0, 0),
				Groups: Chained(7, 3),
			},
			drive: func(c *Cluster) {
				script(7, 35)(c)
				c.MulticastAt(0, 40*time.Millisecond, []int{0, 1}, 200)
				c.MulticastAt(3, 73*time.Millisecond, []int{1, 2}, 201)
				c.MulticastAt(6, 101*time.Millisecond, []int{0, 2}, 202)
				c.MulticastAt(2, 137*time.Millisecond, []int{0, 1, 2}, 203)
				c.MulticastAt(5, 171*time.Millisecond, []int{0, 1, 2}, 204)
			},
			run: 2 * time.Second,
		},
		{
			// The one-way ring is the fully directed topology. Every
			// unicast and multicast relays hop by hop the one way round,
			// a crash severs the relay chain mid-run, and a link fault
			// stretches then clears one hop's delay. Pins the per-hop
			// wire trace bit for bit.
			name: "FD/n=6/one-way-ring-crash",
			cfg: ClusterConfig{
				Algorithm: FD, N: 6, Seed: 71, QoS: Detectors(10, 0, 0),
				Topology: OneWayRing(6),
				Plan: NewFaultPlan().
					Link(90*time.Millisecond, 2, 3, 0, 3*time.Millisecond).
					Link(240*time.Millisecond, 2, 3, 0, 0).
					Crash(320*time.Millisecond, 4),
			},
			drive: script(6, 36),
			run:   3 * time.Second,
		},
		{
			// Crash-recover-crash churn of the coordinator through the
			// plan surface; FD resumes p0 with its state intact.
			name: "FD/n=3/churn-recover",
			cfg: ClusterConfig{
				Algorithm: FD, N: 3, Seed: 29, QoS: Detectors(10, 0, 0),
				Plan: NewFaultPlan().
					Crash(70*time.Millisecond, 0).
					Recover(180*time.Millisecond, 0).
					Crash(260*time.Millisecond, 0),
			},
			drive: script(3, 40),
			run:   3 * time.Second,
		},
	}
}

// digestScenario runs one scenario and returns its trace digest.
func digestScenario(sc goldenScenario) uint64 {
	h := fnv.New64a()
	line := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{'\n'})
	}
	cfg := sc.cfg
	cfg.OnDeliver = func(d Delivery) {
		line("D %d %d:%d %d", d.Process, d.ID.Origin, d.ID.Seq, d.At)
	}
	cfg.OnView = func(v ViewInfo) {
		line("V %d %d %v %d", v.Process, v.ViewID, v.Members, v.At)
	}
	c := NewCluster(cfg)
	c.SetTrace(func(ev NetEvent) {
		line("N %s %d %d %s %d", ev.Stage, ev.From, ev.To, ev.Payload, ev.At)
	})
	sc.drive(c)
	c.Run(sc.run)
	st := c.Stats()
	line("S %d %d %d %d", st.Unicasts, st.Multicasts, st.WireSlots, st.Deliveries)
	return h.Sum64()
}

// TestGoldenTraceDigests asserts that fixed-seed simulations — FD and GM,
// with crashes, pre-crashes and both scripted and stochastic suspicions —
// reproduce their recorded full-trace digest bit for bit.
func TestGoldenTraceDigests(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want, ok := goldenDigests[sc.name]
			if !ok {
				t.Fatalf("no golden digest recorded for %q", sc.name)
			}
			got := digestScenario(sc)
			if got != want {
				t.Fatalf("trace digest = %#016x, want %#016x — the kernel no longer reproduces this simulation bit for bit", got, want)
			}
		})
	}
}

// TestHeartbeatSilencesQoS pins the detector rule from the facade side:
// behind the heartbeat detector the modelled detectors run silent, so a
// Cluster's QoS — stochastic mistakes included — changes no delivery, view
// or network event. FD and GM, ungrouped and sharded, through a crash.
func TestHeartbeatSilencesQoS(t *testing.T) {
	hb := &HeartbeatConfig{Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond}
	for _, alg := range []Algorithm{FD, GM} {
		for _, m := range []*GroupMap{nil, Disjoint(4, 2)} {
			sc := goldenScenario{
				cfg: ClusterConfig{Algorithm: alg, N: 4, Seed: 19, Heartbeat: hb, Groups: m},
				drive: func(c *Cluster) {
					for i := 0; i < 40; i++ {
						c.BroadcastAt(i%4, time.Duration(i)*7*time.Millisecond, i)
					}
					c.CrashAt(3, 120*time.Millisecond)
				},
				run: 2 * time.Second,
			}
			silent := digestScenario(sc)
			sc.cfg.QoS = Detectors(10, 50, 5)
			if got := digestScenario(sc); got != silent {
				t.Errorf("%v groups=%v: digest %#016x with QoS, %#016x without", alg, m, got, silent)
			}
		}
	}
}

// TestFDLongOutageClusterUnwedges is the facade-level acceptance check
// for decision-log catch-up: after an outage spanning far more than the
// consensus instance window, the recovered process delivers the entire
// missed suffix and every post-recovery message, in the same order as an
// always-up process.
func TestFDLongOutageClusterUnwedges(t *testing.T) {
	var sc goldenScenario
	for _, s := range goldenScenarios() {
		if s.name == "FD/n=3/long-outage" {
			sc = s
		}
	}
	if sc.drive == nil {
		t.Fatal("long-outage scenario missing")
	}
	cfg := sc.cfg
	perProc := make([][]MessageID, cfg.N)
	cfg.OnDeliver = func(d Delivery) {
		perProc[d.Process] = append(perProc[d.Process], d.ID)
	}
	c := NewCluster(cfg)
	sc.drive(c)
	c.Run(sc.run)
	const sent = 126 // 120 outage-era + 6 post-recovery broadcasts
	if got := len(perProc[0]); got != sent {
		t.Fatalf("reference process delivered %d/%d messages", got, sent)
	}
	if got := len(perProc[2]); got != sent {
		t.Fatalf("recovered process delivered %d/%d messages — still wedged behind the instance window", got, sent)
	}
	for i := range perProc[0] {
		if perProc[0][i] != perProc[2][i] {
			t.Fatalf("delivery order diverges at %d: p0 has %v, p2 has %v", i, perProc[0][i], perProc[2][i])
		}
	}
}

// TestGoldenDigestsStableAcrossRuns guards the digest harness itself:
// running the same scenario twice in one process must agree, or the
// digests prove nothing.
func TestGoldenDigestsStableAcrossRuns(t *testing.T) {
	sc := goldenScenarios()[0]
	if a, b := digestScenario(sc), digestScenario(sc); a != b {
		t.Fatalf("same scenario digested %#016x then %#016x in one process", a, b)
	}
}
