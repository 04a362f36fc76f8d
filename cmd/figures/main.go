// Command figures regenerates the data behind every figure of the paper's
// evaluation (§7): latency-vs-throughput curves for the normal-steady and
// crash-steady scenarios (Figs. 4, 5), latency versus the failure-detector
// QoS metrics TMR and TM in the suspicion-steady scenario (Figs. 6, 7),
// and the crash-transient latency overhead (Fig. 8) — plus the ablations
// discussed in §7/§8 (coordinator renumbering, the non-uniform sequencer
// variant, the λ parameter) and a Fig. 1 message-pattern equivalence
// check.
//
// Output is TSV with commented headers, one block per figure panel,
// suitable for gnuplot or any plotting tool:
//
//	figures -fig 4            # one figure
//	figures -fig all -quick   # everything, reduced resolution
//
// Unstable points (messages left undelivered, the regime where the paper
// omits the GM curve) print "unstable" in place of a latency.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro"
)

// figures is the one table of what -fig accepts, in "all" order: the
// flag's help text, the dispatch and the unknown-figure error all read it.
// nscale and groups are the large-N grids and smoke is CI's golden grid;
// "all" leaves them to be asked for by name.
var figures = []struct {
	name  string
	inAll bool
	run   func()
}{
	{"1", true, fig1},
	{"4", true, fig4},
	{"5", true, fig5},
	{"6", true, fig6},
	{"7", true, fig7},
	{"8", true, fig8},
	{"dist", true, figDist},
	{"hb", true, figHeartbeat},
	{"partition", true, figPartition},
	{"churn", true, figChurn},
	{"overload", true, figOverload},
	{"burst", true, figBurst},
	{"nscale", false, figNScale},
	{"groups", false, figGroups},
	{"smoke", false, figSmoke},
	{"ablations", true, ablations},
}

// figNames lists every -fig value, for the help text and the error.
func figNames() string {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

var (
	figFlag     = flag.String("fig", "all", "figure to regenerate: "+figNames())
	quickFlag   = flag.Bool("quick", false, "reduced sweeps and durations (~20x faster)")
	seedFlag    = flag.Uint64("seed", 1, "base random seed")
	repsFlag    = flag.Int("reps", 0, "replications per point (0 = scenario default)")
	workersFlag = flag.Int("workers", 0, "parallel replication workers (0 = GOMAXPROCS, 1 = serial)")
	progFlag    = flag.Bool("progress", false, "report replication progress on stderr")
	traceFlag   = flag.String("trace", "", "write the smoke grid's replayable trace to this file (fig smoke)")
	replayFlag  = flag.String("replay", "", "replay a trace file, verify delivery digests and exit")
)

// runner fans every figure's (point, replication) grid out over a worker
// pool; results are bit-identical at any worker count.
var runner *repro.Runner

func main() {
	flag.Parse()
	runner = &repro.Runner{Workers: *workersFlag}
	if *replayFlag != "" {
		replayTrace(*replayFlag)
		return
	}
	if *progFlag {
		// Progress may fire concurrently and out of order from worker
		// goroutines: serialise and drop regressions so a stale count
		// never prints over the final one.
		var mu sync.Mutex
		best := 0
		runner.Progress = func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done < best {
				return
			}
			best = done
			fmt.Fprintf(os.Stderr, "\r%d/%d replications", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
				best = 0 // next batch counts from zero again
			}
		}
	}
	ran := false
	for _, f := range figures {
		if f.name == *figFlag || (*figFlag == "all" && f.inAll) {
			f.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want one of: %s)\n", *figFlag, figNames())
		os.Exit(2)
	}
}

// throughputs returns the x-axis sweep of the latency-vs-throughput
// figures.
func throughputs() []float64 {
	if *quickFlag {
		return []float64{10, 100, 300, 500, 650}
	}
	return []float64{10, 50, 100, 200, 300, 400, 500, 600, 650, 700}
}

// steadyCfg builds a Config with durations scaled to gather a useful
// number of messages at throughput T.
func steadyCfg(alg repro.Algorithm, n int, thr float64) repro.Config {
	target := 600.0 // messages per replication
	reps := 3
	if *quickFlag {
		target = 150
		reps = 2
	}
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	measure := time.Duration(target / thr * float64(time.Second))
	if measure < 3*time.Second {
		measure = 3 * time.Second
	}
	if measure > 120*time.Second {
		measure = 120 * time.Second
	}
	return repro.Config{
		Algorithm:    alg,
		N:            n,
		Throughput:   thr,
		Seed:         *seedFlag,
		Warmup:       time.Second,
		Measure:      measure,
		Drain:        20 * time.Second,
		Replications: reps,
	}
}

// cell formats one latency ± CI pair, or "unstable".
func cell(res repro.Result) string {
	if !res.Stable {
		return "unstable\tunstable"
	}
	return fmt.Sprintf("%.2f\t%.2f", res.Latency.Mean, res.Latency.CI95)
}

func fig1() {
	fmt.Println("# Figure 1 check: identical failure-free message pattern (FD vs GM)")
	fmt.Println("# n\tthroughput(1/s)\tFD_wire_msgs\tGM_wire_msgs\tFD_lat(ms)\tGM_lat(ms)")
	for _, n := range []int{3, 7} {
		for _, thr := range []float64{10, 300} {
			counts := make(map[repro.Algorithm]uint64)
			lats := make(map[repro.Algorithm]float64)
			for _, alg := range []repro.Algorithm{repro.FD, repro.GM} {
				cfg := steadyCfg(alg, n, thr)
				cfg.Measure = 3 * time.Second
				cfg.Replications = 1
				res := runner.Steady(cfg)
				lats[alg] = res.PerMessage.Mean
				// Wire counts come from a dedicated cluster run with the
				// same arrivals.
				var wires uint64
				func() {
					c := repro.NewCluster(repro.ClusterConfig{Algorithm: alg, N: n, Seed: *seedFlag})
					for i := 0; i < 20; i++ {
						c.BroadcastAt(i%n, time.Duration(i)*7*time.Millisecond, i)
					}
					c.Run(2 * time.Second)
					wires = c.Stats().WireSlots
				}()
				counts[alg] = wires
			}
			fmt.Printf("%d\t%.0f\t%d\t%d\t%.4f\t%.4f\n",
				n, thr, counts[repro.FD], counts[repro.GM], lats[repro.FD], lats[repro.GM])
		}
	}
	fmt.Println()
}

func fig4() {
	for _, n := range []int{3, 7} {
		fmt.Printf("# Figure 4: latency vs throughput, normal-steady, n=%d\n", n)
		fmt.Println("# throughput(1/s)\tFD_lat(ms)\tFD_ci\tGM_lat(ms)\tGM_ci")
		thrs := throughputs()
		var cfgs []repro.Config
		for _, thr := range thrs {
			cfgs = append(cfgs, repro.Sweep{
				Base:       steadyCfg(repro.FD, n, thr),
				Algorithms: []repro.Algorithm{repro.FD, repro.GM},
			}.Points()...)
		}
		res := runner.SteadyAll(cfgs)
		for i, thr := range thrs {
			fmt.Printf("%.0f\t%s\t%s\n", thr, cell(res[2*i]), cell(res[2*i+1]))
		}
		fmt.Println()
	}
}

func fig5() {
	panels := []struct {
		n       int
		crashes []int
	}{
		{3, []int{0, 1}},
		{7, []int{0, 1, 2, 3}},
	}
	for _, panel := range panels {
		fmt.Printf("# Figure 5: latency vs throughput, crash-steady, n=%d\n", panel.n)
		header := "# throughput(1/s)"
		for _, c := range panel.crashes {
			header += fmt.Sprintf("\tFD_%dcr\tci\tGM_%dcr\tci", c, c)
		}
		fmt.Println(header)
		thrs := throughputs()
		// One crash-set per curve: crash the highest PIDs — non-coordinator
		// processes, matching the paper's Fig. 5 presentation.
		sets := make([][]repro.ProcessID, len(panel.crashes))
		for i, crashes := range panel.crashes {
			for k := 0; k < crashes; k++ {
				sets[i] = append(sets[i], pid(panel.n-1-k))
			}
		}
		// Measure durations scale with throughput, so the grid is one
		// Algorithm × CrashSet sweep per throughput, batched into a single
		// pool run.
		var cfgs []repro.Config
		for _, thr := range thrs {
			cfgs = append(cfgs, repro.Sweep{
				Base:       steadyCfg(repro.FD, panel.n, thr),
				Algorithms: []repro.Algorithm{repro.FD, repro.GM},
				CrashSets:  sets,
			}.Points()...)
		}
		res := runner.SteadyAll(cfgs)
		// Each throughput's block comes back in canonical sweep order:
		// all FD crash-sets, then all GM crash-sets.
		block := 2 * len(sets)
		for ti, thr := range thrs {
			row := fmt.Sprintf("%.0f", thr)
			for ci := range sets {
				row += "\t" + cell(res[ti*block+ci]) + "\t" + cell(res[ti*block+len(sets)+ci])
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
}

func fig6() {
	tmrs := []float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 100000, 1000000}
	if *quickFlag {
		tmrs = []float64{10, 100, 1000, 10000, 1000000}
	}
	panels := []struct {
		n   int
		thr float64
	}{
		{3, 10}, {7, 10}, {3, 300}, {7, 300},
	}
	for _, panel := range panels {
		fmt.Printf("# Figure 6: latency vs TMR, suspicion-steady, TM=0, n=%d, throughput=%.0f/s\n",
			panel.n, panel.thr)
		fmt.Println("# TMR(ms)\tFD_lat(ms)\tFD_ci\tGM_lat(ms)\tGM_ci")
		var qos []repro.QoS
		for _, tmr := range tmrs {
			qos = append(qos, repro.Detectors(0, tmr, 0))
		}
		res := runner.Sweep(repro.Sweep{
			Base:       steadyCfg(repro.FD, panel.n, panel.thr),
			Algorithms: []repro.Algorithm{repro.FD, repro.GM},
			QoS:        qos,
		})
		for i, tmr := range tmrs {
			fmt.Printf("%.0f\t%s\t%s\n", tmr, cell(res[i]), cell(res[len(tmrs)+i]))
		}
		fmt.Println()
	}
}

func fig7() {
	tms := []float64{1, 3, 10, 30, 100, 300, 1000}
	if *quickFlag {
		tms = []float64{1, 10, 100, 1000}
	}
	panels := []struct {
		n   int
		thr float64
		tmr float64
	}{
		{3, 10, 1000}, {7, 10, 10000}, {3, 300, 10000}, {7, 300, 100000},
	}
	for _, panel := range panels {
		fmt.Printf("# Figure 7: latency vs TM, suspicion-steady, n=%d, throughput=%.0f/s, TMR=%.0fms\n",
			panel.n, panel.thr, panel.tmr)
		fmt.Println("# TM(ms)\tFD_lat(ms)\tFD_ci\tGM_lat(ms)\tGM_ci")
		var qos []repro.QoS
		for _, tm := range tms {
			qos = append(qos, repro.Detectors(0, panel.tmr, tm))
		}
		res := runner.Sweep(repro.Sweep{
			Base:       steadyCfg(repro.FD, panel.n, panel.thr),
			Algorithms: []repro.Algorithm{repro.FD, repro.GM},
			QoS:        qos,
		})
		for i, tm := range tms {
			fmt.Printf("%.0f\t%s\t%s\n", tm, cell(res[i]), cell(res[len(tms)+i]))
		}
		fmt.Println()
	}
}

func fig8() {
	tds := []float64{0, 10, 100}
	thrs := throughputs()
	reps := 10
	if *quickFlag {
		reps = 5
	}
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	for _, n := range []int{3, 7} {
		fmt.Printf("# Figure 8: latency overhead (L - TD) vs throughput, crash-transient,\n")
		fmt.Printf("# crash of the coordinator/sequencer p0 at the broadcast instant, n=%d\n", n)
		header := "# throughput(1/s)"
		for _, td := range tds {
			header += fmt.Sprintf("\tFD_TD%.0f\tci\tGM_TD%.0f\tci", td, td)
		}
		fmt.Println(header)
		var cfgs []repro.TransientConfig
		for _, thr := range thrs {
			for _, td := range tds {
				for _, alg := range []repro.Algorithm{repro.FD, repro.GM} {
					cfgs = append(cfgs, repro.TransientConfig{
						Config: repro.Config{
							Algorithm:    alg,
							N:            n,
							Throughput:   thr,
							QoS:          repro.Detectors(td, 0, 0),
							Seed:         *seedFlag,
							Warmup:       time.Second,
							Drain:        20 * time.Second,
							Replications: reps,
						},
						Crash: 0,
					})
				}
			}
		}
		var results []repro.TransientResult
		if *quickFlag {
			// Quick mode measures the single pair (p0, p1): batch the
			// whole panel's grid through the pool.
			for i := range cfgs {
				cfgs[i].Sender = 1
			}
			results = runner.TransientAll(cfgs)
		} else {
			// Full mode worst-cases each point over senders; each call
			// already fans its sender x replication grid out.
			for _, cfg := range cfgs {
				results = append(results, runner.WorstCaseTransient(cfg, false))
			}
		}
		i := 0
		for _, thr := range thrs {
			row := fmt.Sprintf("%.0f", thr)
			for range tds {
				for range []repro.Algorithm{repro.FD, repro.GM} {
					res := results[i]
					i++
					if res.Overhead.N == 0 {
						row += "\tlost\tlost"
					} else {
						row += fmt.Sprintf("\t%.2f\t%.2f", res.Overhead.Mean, res.Overhead.CI95)
					}
				}
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
}

func ablations() {
	// Ablation A: the §7 coordinator renumbering optimisation,
	// crash-steady with the round-1 coordinator long dead.
	fmt.Println("# Ablation A: FD coordinator renumbering, crash-steady with p0 crashed, n=3")
	fmt.Println("# throughput(1/s)\trenumber_on(ms)\tci\trenumber_off(ms)\tci")
	thrsA := []float64{10, 100, 300, 500}
	var cfgsA []repro.Config
	for _, thr := range thrsA {
		onCfg := steadyCfg(repro.FD, 3, thr)
		onCfg.Crashed = []repro.ProcessID{0}
		offCfg := steadyCfg(repro.FD, 3, thr)
		offCfg.Crashed = []repro.ProcessID{0}
		offCfg.DisableRenumber = true
		cfgsA = append(cfgsA, onCfg, offCfg)
	}
	resA := runner.SteadyAll(cfgsA)
	for i, thr := range thrsA {
		fmt.Printf("%.0f\t%s\t%s\n", thr, cell(resA[2*i]), cell(resA[2*i+1]))
	}
	fmt.Println()

	// Ablation B: the §8 non-uniform sequencer variant — an Algorithms
	// sweep per throughput (measure durations depend on the throughput).
	fmt.Println("# Ablation B: GM uniform vs non-uniform (§8), normal-steady, n=3")
	fmt.Println("# throughput(1/s)\tuniform(ms)\tci\tnonuniform(ms)\tci")
	thrsB := []float64{10, 100, 300, 500, 700}
	var cfgsB []repro.Config
	for _, thr := range thrsB {
		cfgsB = append(cfgsB, repro.Sweep{
			Base:       steadyCfg(repro.GM, 3, thr),
			Algorithms: []repro.Algorithm{repro.GM, repro.GMNonUniform},
		}.Points()...)
	}
	resB := runner.SteadyAll(cfgsB)
	for i, thr := range thrsB {
		fmt.Printf("%.0f\t%s\t%s\n", thr, cell(resB[2*i]), cell(resB[2*i+1]))
	}
	fmt.Println()

	// Ablation C: the λ parameter of the network model (§6.1) — a Lambdas
	// sweep. The DSN paper presents λ=1; the extended TR sweeps it.
	fmt.Println("# Ablation C: lambda sweep, normal-steady, n=3, throughput=100/s")
	fmt.Println("# lambda\tFD_lat(ms)\tci")
	lambdas := []float64{0.5, 1, 2, 4}
	resC := runner.Sweep(repro.Sweep{
		Base:    steadyCfg(repro.FD, 3, 100),
		Lambdas: lambdas,
	})
	for i, lambda := range lambdas {
		fmt.Printf("%.1f\t%s\n", lambda, cell(resC[i]))
	}
	fmt.Println()
}

// qcell formats one point's P50/P90/P99 columns, or "unstable".
func qcell(q repro.Quantiles, stable bool) string {
	if !stable || q.N == 0 {
		return "unstable\tunstable\tunstable"
	}
	return fmt.Sprintf("%.2f\t%.2f\t%.2f", q.P50, q.P90, q.P99)
}

// figDist emits the distribution view the mean-with-CI figures cannot
// show. Block D1 revisits the suspicion-steady scenario (Fig. 6) as
// quantiles with the early/late population split: most messages deliver
// at failure-free latency while wrong suspicions push a second
// population far out, and only the split makes that visible. Block D2
// revisits the crash-transient scenario (Fig. 8) as probe-latency
// quantiles over replications.
func figDist() {
	// D1: suspicion-steady quantiles. The first QoS entry is the
	// no-suspicion baseline; the early/late threshold is twice its median.
	tmrs := []float64{30, 100, 300, 1000, 3000, 10000}
	if *quickFlag {
		tmrs = []float64{100, 1000, 10000}
	}
	const n, thr = 3, 100.0
	fmt.Printf("# Figure D1: latency quantiles vs TMR, suspicion-steady, TM=0, n=%d, throughput=%.0f/s\n", n, thr)
	fmt.Println("# late% = share of messages above 2x the no-suspicion median latency")
	fmt.Println("# TMR(ms)\tFD_P50\tFD_P90\tFD_P99\tFD_late%\tGM_P50\tGM_P90\tGM_P99\tGM_late%")
	qos := []repro.QoS{{}} // baseline: no suspicions
	for _, tmr := range tmrs {
		qos = append(qos, repro.Detectors(0, tmr, 0))
	}
	res := runner.Sweep(repro.Sweep{
		Base:       steadyCfg(repro.FD, n, thr),
		Algorithms: []repro.Algorithm{repro.FD, repro.GM},
		QoS:        qos,
	})
	lateCell := func(r repro.Result, threshold float64) string {
		if !r.Stable || r.Quantiles.N == 0 {
			return "unstable"
		}
		_, late := r.Dist.SplitAt(threshold)
		return fmt.Sprintf("%.1f", 100*float64(late.N())/float64(r.Quantiles.N))
	}
	fdThreshold := 2 * res[0].Quantiles.P50
	gmThreshold := 2 * res[len(qos)].Quantiles.P50
	for i, tmr := range tmrs {
		fd, gm := res[1+i], res[len(qos)+1+i]
		fmt.Printf("%.0f\t%s\t%s\t%s\t%s\n",
			tmr,
			qcell(fd.Quantiles, fd.Stable), lateCell(fd, fdThreshold),
			qcell(gm.Quantiles, gm.Stable), lateCell(gm, gmThreshold))
	}
	fmt.Println()

	// D2: crash-transient probe-latency quantiles over replications.
	thrs := []float64{10, 100, 300, 500}
	reps := 10
	if *quickFlag {
		reps = 5
	}
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	fmt.Printf("# Figure D2: crash-transient probe latency quantiles (Fig. 8 revisited),\n")
	fmt.Printf("# crash of coordinator/sequencer p0, sender p1, n=3, TD=10ms, %d replications\n", reps)
	fmt.Println("# throughput(1/s)\tFD_P50\tFD_P90\tFD_P99\tGM_P50\tGM_P90\tGM_P99")
	var cfgs []repro.TransientConfig
	for _, thr := range thrs {
		for _, alg := range []repro.Algorithm{repro.FD, repro.GM} {
			cfgs = append(cfgs, repro.TransientConfig{
				Config: repro.Config{
					Algorithm:    alg,
					N:            3,
					Throughput:   thr,
					QoS:          repro.Detectors(10, 0, 0),
					Seed:         *seedFlag,
					Warmup:       time.Second,
					Drain:        20 * time.Second,
					Replications: reps,
				},
				Crash:  0,
				Sender: 1,
			})
		}
	}
	tres := runner.TransientAll(cfgs)
	for i, thr := range thrs {
		fmt.Printf("%.0f\t%s\t%s\n", thr,
			qcell(tres[2*i].Quantiles, tres[2*i].Quantiles.N > 0),
			qcell(tres[2*i+1].Quantiles, tres[2*i+1].Quantiles.N > 0))
	}
	fmt.Println()
}

// figHeartbeat drives the concrete heartbeat failure detector through
// the Sweep Detector axis: the same workload under the abstract QoS
// model and under real heartbeat traffic that contends for the wire.
func figHeartbeat() {
	detectors := []*repro.HeartbeatConfig{
		nil, // abstract QoS model, perfect detector
		repro.HeartbeatDetector(10, 30),
		repro.HeartbeatDetector(20, 60),
	}
	names := []string{"qos-model", "hb-10/30ms", "hb-20/60ms"}
	thrs := []float64{10, 100, 300}
	fmt.Println("# Figure H: concrete heartbeat FD vs abstract QoS model, normal-steady, FD algorithm, n=3")
	fmt.Println("# heartbeats share the contended wire, so detection cost appears as added latency")
	fmt.Println("# throughput(1/s)\tdetector\tmean(ms)\tci\tP50\tP90\tP99")
	var cfgs []repro.Config
	for _, thr := range thrs {
		cfgs = append(cfgs, repro.Sweep{
			Base:      steadyCfg(repro.FD, 3, thr),
			Detectors: detectors,
		}.Points()...)
	}
	res := runner.SteadyAll(cfgs)
	for ti, thr := range thrs {
		for di, name := range names {
			r := res[ti*len(detectors)+di]
			if !r.Stable {
				fmt.Printf("%.0f\t%s\tunstable\tunstable\tunstable\tunstable\tunstable\n", thr, name)
				continue
			}
			fmt.Printf("%.0f\t%s\t%.2f\t%.2f\t%s\n", thr, name, r.Latency.Mean, r.Latency.CI95,
				qcell(r.Quantiles, true))
		}
	}
	fmt.Println()
}

// figPartition drives both algorithms through a partition-and-heal
// FaultPlan: a majority/minority split opens mid-measurement and heals
// before it ends. The distributions separate the algorithms the way no
// failure-free figure can: the FD algorithm keeps serving the majority,
// catches the minority back up through decision-log catch-up after the
// heal, but loses the minority's own partition-era messages outright (no
// retransmission in its reliable broadcast), while the GM algorithm
// excludes the minority, welcomes it back through rejoin + state
// transfer, and recovers every message — at the price of a heavy late
// tail in the latency distribution.
func figPartition() {
	const n = 5
	warmup := time.Second
	plan := repro.NewFaultPlan().
		Partition(warmup+1500*time.Millisecond, []repro.ProcessID{0, 1, 2}, []repro.ProcessID{3, 4}).
		Heal(warmup + 3*time.Second)
	planFigure([]string{
		fmt.Sprintf("# Figure P: partition-and-heal, n=%d, groups {0 1 2}|{3 4}, split at +1.5s, healed at +3s of a 5s measure", n),
		"# FD keeps the majority running and loses the minority's partition-era messages;",
		"# GM excludes and rejoins the minority (state transfer) and delivers them late.",
	}, n, plan, "part+heal")
}

// figChurn drives both algorithms through a crash-recover-crash schedule
// of the coordinator/sequencer p0 — the paper's worst-case process. The
// GM algorithm pays a sequencer failover, then a rejoin with full state
// transfer, then a second failover; the crash-stop FD algorithm treats
// the recovery as the end of an outage and resumes the process with its
// state intact, closing its gap through decision-log catch-up (short
// gaps also close through ordinary decision forwarding).
func figChurn() {
	const n = 3
	warmup := time.Second
	plan := repro.NewFaultPlan().
		Crash(warmup+time.Second, 0).
		Recover(warmup+2500*time.Millisecond, 0).
		Crash(warmup+4*time.Second, 0)
	planFigure([]string{
		"# Figure C: churn of the coordinator/sequencer (crash p0 at +1s, recover at +2.5s,",
		fmt.Sprintf("# crash again at +4s of a 5s measure), n=%d, TD=10ms", n),
		"# GM pays sequencer failover + rejoin/state transfer; crash-stop FD resumes p0 in place.",
	}, n, plan, "churn")
}

// figOverload crosses a FaultPlan with a LoadPlan: a majority/minority
// partition opens mid-measurement and a global rate burst lands while
// the network is still split ("overload while partitioned"). The grid
// runs both algorithms through all four plan combinations — neither,
// partition only, burst only, both — so each effect and their
// interaction is separable. The latency tail is where the algorithms
// part: the FD algorithm serves the majority through both stresses and
// sheds the rest, while the GM algorithm pays for completeness with a
// tail that the overload compounds (the rejoining minority's state
// transfer now competes with the burst's backlog).
func figOverload() {
	const n = 5
	warmup := time.Second
	plan := repro.NewFaultPlan().
		Partition(warmup+1500*time.Millisecond, []repro.ProcessID{0, 1, 2}, []repro.ProcessID{3, 4}).
		Heal(warmup + 3*time.Second)
	load := repro.NewLoadPlan().
		Burst(warmup+2*time.Second, 1500*time.Millisecond, repro.AllSenders, 4)
	thrs := []float64{10, 50, 100}
	if *quickFlag {
		thrs = []float64{10, 50}
	}
	reps := 3
	if *quickFlag {
		reps = 2
	}
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	fmt.Printf("# Figure O: overload while partitioned, n=%d, groups {0 1 2}|{3 4} split +1.5s..+3s,\n", n)
	fmt.Println("# 4x global burst +2s..+3.5s of a 5s measure, TD=10ms; all four plan combinations.")
	fmt.Println("# throughput(1/s)\talg\tfaults\tload\tmean(ms)\tci\tP50\tP90\tP99\tmax\tundelivered")
	var cfgs []repro.Config
	for _, thr := range thrs {
		cfgs = append(cfgs, repro.Sweep{
			Base: repro.Config{
				Algorithm:    repro.FD,
				N:            n,
				Throughput:   thr,
				QoS:          repro.Detectors(10, 0, 0),
				Seed:         *seedFlag,
				Warmup:       warmup,
				Measure:      5 * time.Second,
				Drain:        15 * time.Second,
				Replications: reps,
			},
			Algorithms: []repro.Algorithm{repro.FD, repro.GM},
			Plans:      []*repro.FaultPlan{nil, plan},
			Loads:      []*repro.LoadPlan{nil, load},
		}.Points()...)
	}
	res := runner.SteadyAll(cfgs)
	for i, r := range res {
		faults, loadName := "none", "none"
		if r.Config.Plan != nil {
			faults = "partition"
		}
		if r.Config.Load != nil {
			loadName = "burst"
		}
		fmt.Printf("%.0f\t%v\t%s\t%s\t%s\t%s\t%.4f\t%d\n",
			r.Config.Throughput, r.Config.Algorithm, faults, loadName,
			cellAny(r), qcell(r.Quantiles, r.Quantiles.N > 0), r.Quantiles.Max, r.Undelivered)
		if i%8 == 7 {
			// Blank line between throughput blocks for gnuplot indexing.
			fmt.Println()
		}
	}
}

// figBurst measures recovery from a pure overload spike, no faults: a
// 10x global burst for 500ms mid-measurement. During the spike the
// offered load far exceeds the wire's capacity and a backlog builds;
// the figure reports how far the latency tail stretches (P99 and max —
// the max is reached by the last message to clear the backlog, so it
// reads as the recovery horizon) and whether everything was eventually
// delivered.
func figBurst() {
	const n = 3
	warmup := time.Second
	load := repro.NewLoadPlan().
		Burst(warmup+2*time.Second, 500*time.Millisecond, repro.AllSenders, 10)
	thrs := []float64{10, 50, 100, 200}
	if *quickFlag {
		thrs = []float64{10, 100}
	}
	reps := 3
	if *quickFlag {
		reps = 2
	}
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	fmt.Printf("# Figure B: recovery from a 10x burst (500ms spike at +2s of a 5s measure), n=%d\n", n)
	fmt.Println("# max is the latency of the last message to clear the backlog: the recovery horizon.")
	fmt.Println("# throughput(1/s)\talg\tload\tmean(ms)\tci\tP50\tP90\tP99\tmax\tundelivered")
	var cfgs []repro.Config
	for _, thr := range thrs {
		cfgs = append(cfgs, repro.Sweep{
			Base: repro.Config{
				Algorithm:    repro.FD,
				N:            n,
				Throughput:   thr,
				Seed:         *seedFlag,
				Warmup:       warmup,
				Measure:      5 * time.Second,
				Drain:        15 * time.Second,
				Replications: reps,
			},
			Algorithms: []repro.Algorithm{repro.FD, repro.GM},
			Loads:      []*repro.LoadPlan{nil, load},
		}.Points()...)
	}
	res := runner.SteadyAll(cfgs)
	for i, r := range res {
		loadName := "steady"
		if r.Config.Load != nil {
			loadName = "burst-10x"
		}
		fmt.Printf("%.0f\t%v\t%s\t%s\t%s\t%.4f\t%d\n",
			r.Config.Throughput, r.Config.Algorithm, loadName,
			cellAny(r), qcell(r.Quantiles, r.Quantiles.N > 0), r.Quantiles.Max, r.Undelivered)
		if i%4 == 3 {
			fmt.Println()
		}
	}
}

// planFigure is the shared body of the plan-driven figures: both
// algorithms with and without the plan, across the throughput sweep,
// reporting mean/CI/quantiles plus the undelivered count.
func planFigure(header []string, n int, plan *repro.FaultPlan, label string) {
	warmup := time.Second
	thrs := []float64{10, 100, 300}
	if *quickFlag {
		thrs = []float64{10, 100}
	}
	reps := 3
	if *quickFlag {
		reps = 2
	}
	if *repsFlag > 0 {
		reps = *repsFlag
	}
	for _, line := range header {
		fmt.Println(line)
	}
	fmt.Println("# throughput(1/s)\talg\tplan\tmean(ms)\tci\tP50\tP90\tP99\tundelivered")
	var cfgs []repro.Config
	for _, thr := range thrs {
		cfgs = append(cfgs, repro.Sweep{
			Base: repro.Config{
				Algorithm:    repro.FD,
				N:            n,
				Throughput:   thr,
				QoS:          repro.Detectors(10, 0, 0),
				Seed:         *seedFlag,
				Warmup:       warmup,
				Measure:      5 * time.Second,
				Drain:        15 * time.Second,
				Replications: reps,
			},
			Algorithms: []repro.Algorithm{repro.FD, repro.GM},
			Plans:      []*repro.FaultPlan{nil, plan},
		}.Points()...)
	}
	res := runner.SteadyAll(cfgs)
	for i, r := range res {
		name := "none"
		if r.Config.Plan != nil {
			name = label
		}
		fmt.Printf("%.0f\t%v\t%s\t%s\t%s\t%d\n",
			r.Config.Throughput, r.Config.Algorithm, name,
			cellAny(r), qcell(r.Quantiles, r.Quantiles.N > 0), r.Undelivered)
		if i%4 == 3 {
			// Blank line between throughput blocks for gnuplot indexing.
			fmt.Println()
		}
	}
}

// cellAny formats mean ± CI even for points with undelivered messages
// (the partition and churn figures report those honestly in their own
// column instead of suppressing the whole row).
func cellAny(res repro.Result) string {
	if res.Latency.N == 0 {
		return "lost\tlost"
	}
	return fmt.Sprintf("%.2f\t%.2f", res.Latency.Mean, res.Latency.CI95)
}

// figSmoke runs three fixed pinned grids — the abstract QoS model vs the
// concrete heartbeat detector, a plan-driven partition-and-heal pair,
// and a load-shaped burst-and-mute pair — with the trace observer
// attached, and prints each replication's delivery digest plus each
// point's summary. Everything is pinned (seed, durations, grids), so the
// output is byte-stable across machines and lives in
// golden/figures_smoke.tsv; CI regenerates it and fails on any diff,
// then replays the trace. The -trace flag selects the trace file
// (default: discard).
func figSmoke() {
	var w io.Writer = io.Discard
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	tr := repro.NewTrace(w)
	sweep := repro.Sweep{
		Base: repro.Config{
			Algorithm:    repro.FD,
			N:            3,
			Throughput:   50,
			Seed:         1,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        5 * time.Second,
			Replications: 2,
			Observers:    []repro.ObserverFactory{tr.Observer},
		},
		Detectors: []*repro.HeartbeatConfig{nil, repro.HeartbeatDetector(10, 30)},
	}
	res := runner.Sweep(sweep)
	fmt.Println("# Smoke grid: FD n=3 T=50/s seed=1, QoS model (point 0) vs heartbeat 10/30ms (point 1)")
	fmt.Println("# point\tmean(ms)\tP50\tP90\tP99\tmessages")
	for i, r := range res {
		fmt.Printf("%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\n", i,
			r.Latency.Mean, r.Quantiles.P50, r.Quantiles.P90, r.Quantiles.P99, r.Messages)
	}
	fmt.Println("# point\trep\tdelivery_digest")
	for _, d := range tr.Digests() {
		fmt.Printf("%d\t%d\t%016x\n", d.Point, d.Rep, d.Digest)
	}
	if err := tr.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "trace flush: %v\n", err)
		os.Exit(1)
	}

	// Second pinned grid: one plan-driven point per algorithm — a
	// partition-and-heal mid-measure — exercising the FaultPlan path end
	// to end, trace record and replay included.
	plan := repro.NewFaultPlan().
		Partition(600*time.Millisecond, []repro.ProcessID{0, 1}, []repro.ProcessID{2}).
		Heal(900 * time.Millisecond)
	planSweep := repro.Sweep{
		Base: repro.Config{
			Algorithm:    repro.FD,
			N:            3,
			Throughput:   50,
			QoS:          repro.Detectors(10, 0, 0),
			Seed:         1,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        5 * time.Second,
			Replications: 2,
			Plan:         plan,
			Observers:    []repro.ObserverFactory{tr.Observer},
		},
		Algorithms: []repro.Algorithm{repro.FD, repro.GM},
	}
	planRes := runner.Sweep(planSweep)
	fmt.Println("# Plan grid: partition {0 1}|{2} at 600ms, heal at 900ms; FD (point 0) vs GM (point 1)")
	fmt.Println("# point\tmean(ms)\tP50\tP90\tP99\tmessages\tundelivered")
	for i, r := range planRes {
		fmt.Printf("%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%d\n", i,
			r.Latency.Mean, r.Quantiles.P50, r.Quantiles.P90, r.Quantiles.P99, r.Messages, r.Undelivered)
	}
	fmt.Println("# point\trep\tdelivery_digest")
	for _, d := range tr.Digests() {
		fmt.Printf("%d\t%d\t%016x\n", d.Point, d.Rep, d.Digest)
	}
	if err := tr.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "trace flush: %v\n", err)
		os.Exit(1)
	}

	// Third pinned grid: one load-shaped point per algorithm — a 4x burst
	// plus a mute/unmute of sender 2 mid-measure — exercising the LoadPlan
	// path end to end, trace record and replay included.
	load := repro.NewLoadPlan().
		Burst(400*time.Millisecond, 200*time.Millisecond, repro.AllSenders, 4).
		Mute(600*time.Millisecond, 2).
		Unmute(900*time.Millisecond, 2)
	loadSweep := repro.Sweep{
		Base: repro.Config{
			Algorithm:    repro.FD,
			N:            3,
			Throughput:   50,
			QoS:          repro.Detectors(10, 0, 0),
			Seed:         1,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        5 * time.Second,
			Replications: 2,
			Load:         load,
			Observers:    []repro.ObserverFactory{tr.Observer},
		},
		Algorithms: []repro.Algorithm{repro.FD, repro.GM},
	}
	loadRes := runner.Sweep(loadSweep)
	fmt.Println("# Load grid: 4x burst 400..600ms + mute p2 600..900ms; FD (point 0) vs GM (point 1)")
	fmt.Println("# point\tmean(ms)\tP50\tP90\tP99\tmessages\tundelivered")
	for i, r := range loadRes {
		fmt.Printf("%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%d\n", i,
			r.Latency.Mean, r.Quantiles.P50, r.Quantiles.P90, r.Quantiles.P99, r.Messages, r.Undelivered)
	}
	fmt.Println("# point\trep\tdelivery_digest")
	for _, d := range tr.Digests() {
		fmt.Printf("%d\t%d\t%016x\n", d.Point, d.Rep, d.Digest)
	}
	if err := tr.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "trace flush: %v\n", err)
		os.Exit(1)
	}

	// Fourth pinned grid: a long outage — p2 down for a full second of
	// dense traffic, far more decisions than the FD consensus instance
	// window retains — exercising the decision-log catch-up path end to
	// end (GM rides the same plan through its rejoin machinery).
	outagePlan := repro.NewFaultPlan().
		Crash(300*time.Millisecond, 2).
		Recover(1300*time.Millisecond, 2)
	outageSweep := repro.Sweep{
		Base: repro.Config{
			Algorithm:    repro.FD,
			N:            3,
			Throughput:   150,
			QoS:          repro.Detectors(10, 0, 0),
			Seed:         1,
			Warmup:       200 * time.Millisecond,
			Measure:      1300 * time.Millisecond,
			Drain:        5 * time.Second,
			Replications: 2,
			Plan:         outagePlan,
			Observers:    []repro.ObserverFactory{tr.Observer},
		},
		Algorithms: []repro.Algorithm{repro.FD, repro.GM},
	}
	outageRes := runner.Sweep(outageSweep)
	fmt.Println("# Outage grid: crash p2 at 300ms, recover at 1300ms, T=150/s; FD (point 0) vs GM (point 1)")
	fmt.Println("# point\tmean(ms)\tP50\tP90\tP99\tmessages\tundelivered")
	for i, r := range outageRes {
		fmt.Printf("%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%d\n", i,
			r.Latency.Mean, r.Quantiles.P50, r.Quantiles.P90, r.Quantiles.P99, r.Messages, r.Undelivered)
	}
	fmt.Println("# point\trep\tdelivery_digest")
	for _, d := range tr.Digests() {
		fmt.Printf("%d\t%d\t%016x\n", d.Point, d.Rep, d.Digest)
	}
	if err := tr.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "trace flush: %v\n", err)
		os.Exit(1)
	}

	// Fifth pinned grid: the group-sharded ordering layer — one point per
	// GroupMap across the overlap spectrum (disjoint shards, finer shards,
	// chained bridges) at a fixed cross-shard mix — exercising group-
	// addressed dissemination, per-group protocol stacks and the
	// cross-group timestamp merge, trace record and replay included (the
	// trace header embeds each point's GroupMap spec).
	groupSweep := repro.Sweep{
		Base: repro.Config{
			Algorithm:    repro.FD,
			N:            6,
			Throughput:   60,
			QoS:          repro.Detectors(10, 0, 0),
			Seed:         1,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        5 * time.Second,
			Replications: 2,
			CrossShard:   0.25,
			Observers:    []repro.ObserverFactory{tr.Observer},
		},
		GroupMaps: []*repro.GroupMap{repro.Disjoint(6, 2), repro.Disjoint(6, 3), repro.Chained(6, 3)},
	}
	groupRes := runner.Sweep(groupSweep)
	fmt.Println("# Group grid: n=6 T=60/s cross-shard=0.25; disjoint/2 (point 0), disjoint/3 (point 1), chained/3 (point 2)")
	fmt.Println("# point\tmean(ms)\tP50\tP90\tP99\tmessages\tundelivered")
	for i, r := range groupRes {
		fmt.Printf("%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%d\n", i,
			r.Latency.Mean, r.Quantiles.P50, r.Quantiles.P90, r.Quantiles.P99, r.Messages, r.Undelivered)
	}
	fmt.Println("# point\trep\tdelivery_digest")
	for _, d := range tr.Digests() {
		fmt.Printf("%d\t%d\t%016x\n", d.Point, d.Rep, d.Digest)
	}
	if err := tr.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "trace flush: %v\n", err)
		os.Exit(1)
	}
}

// replayTrace re-runs every replication of a trace file and verifies the
// delivery digests, exiting non-zero on any mismatch.
func replayTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	results, err := repro.ReplayTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(1)
	}
	bad := 0
	for _, r := range results {
		status := "ok"
		if !r.Match {
			status = fmt.Sprintf("MISMATCH (recorded %016x, replayed %016x)", r.Recorded, r.Replayed)
			bad++
		}
		fmt.Printf("point %d rep %d: %s\n", r.Point, r.Rep, status)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "replay: %d of %d replications diverged\n", bad, len(results))
		os.Exit(1)
	}
	fmt.Printf("replayed %d replications, all digests match\n", len(results))
}

// pid converts an int to the facade's process identifier type used in
// Config.Crashed.
func pid(p int) repro.ProcessID { return repro.ProcessID(p) }
