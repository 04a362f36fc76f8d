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
//
// A figure is data — panels of header lines, a grid of points and a row
// layout, rendered by two emitters (curve, listing) — and
// golden/figures_quick.tsv pins the -quick output of every one.
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
	"repro/internal/cli"
)

// figures is the one table of what -fig accepts, in "all" order: the
// flag's help text, the dispatch and the unknown-figure error all read it.
// nscale and groups are the large-N grids and smoke is CI's golden grid;
// "all" leaves them to be asked for by name.
var figures = []struct {
	name   string
	inAll  bool
	panels func() []panel
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

// selected returns the panel builders -fig name asks for, in table order.
func selected(name string) ([]func() []panel, error) {
	var out []func() []panel
	for _, f := range figures {
		if f.name == name || (name == "all" && f.inAll) {
			out = append(out, f.panels)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("unknown figure %q (want one of: %s)", name, figNames())
	}
	return out, nil
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
	profiles    = cli.ProfileFlags(flag.CommandLine)
)

func main() {
	flag.Parse()
	os.Exit(cli.Run("figures", os.Stderr, run))
}

func run() {
	// Checked first: the exits below would skip the profiles' deferred stop.
	builders, err := selected(*figFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stop, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	defer stop()
	// The runner fans every panel's (point, replication) grid out over a
	// worker pool; results are bit-identical at any worker count.
	runner := &repro.Runner{Workers: *workersFlag}
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
	for _, build := range builders {
		for _, p := range build() {
			p.render(os.Stdout, runner)
		}
	}
}

// A panel is one block of a figure's output, as data: the comment and
// column-header lines, the grid of points behind the rows — batched into
// one pool run — and the layout that turns the results into rows.
type panel struct {
	head []string
	// The point list, in row order: exactly one of steady and transient.
	// worst runs each transient point worst-cased over its senders (the
	// paper's Lcrash), one pool run per point.
	steady    []repro.Config
	transient []repro.TransientConfig
	worst     bool
	// The row layout. A curve panel sets xs, one label per row; its points
	// are row-major, len(points)/len(xs) cells — one per series — a row.
	// A listing panel leaves xs nil: one row per point, labelled off the
	// point's Config, a blank line after every `every` rows (0 = none).
	xs    []string
	label func(i int, c repro.Config) string
	every int
	cell  func(repro.Result) string
	tcell func(repro.TransientResult) string
	// emit, when set, replaces the layout for the few panels whose rows
	// are not a function of their own point alone.
	emit func(w io.Writer, res []repro.Result)
}

// render runs the panel's grid and writes the block.
func (p panel) render(w io.Writer, r *repro.Runner) {
	switch {
	case p.transient == nil:
		p.write(w, r.SteadyAll(p.steady), nil)
	case p.worst:
		tres := make([]repro.TransientResult, len(p.transient))
		for i, cfg := range p.transient {
			tres[i] = r.WorstCaseTransient(cfg)
		}
		p.write(w, nil, tres)
	default:
		p.write(w, nil, r.TransientAll(p.transient))
	}
}

// write lays the results of the panel's points out as the block.
func (p panel) write(w io.Writer, res []repro.Result, tres []repro.TransientResult) {
	for _, line := range p.head {
		fmt.Fprintln(w, line)
	}
	switch {
	case p.emit != nil:
		p.emit(w, res)
	case p.xs != nil:
		cells := make([]string, 0, len(res)+len(tres))
		for _, r := range res {
			cells = append(cells, p.cell(r))
		}
		for _, r := range tres {
			cells = append(cells, p.tcell(r))
		}
		curve(w, p.xs, cells)
	default:
		listing(w, res, p.label, p.cell, p.every)
	}
}

// curve emits one row per x-value — the label, then that row's cells —
// and a blank line closing the block.
func curve(w io.Writer, xs, cells []string) {
	per := len(cells) / len(xs)
	for i, x := range xs {
		fmt.Fprintln(w, x+"\t"+strings.Join(cells[i*per:(i+1)*per], "\t"))
	}
	fmt.Fprintln(w)
}

// listing emits one row per grid point — label columns read off the
// point's Config, then its cell — with a blank line after every `every`
// rows for gnuplot indexing.
func listing(w io.Writer, res []repro.Result, label func(int, repro.Config) string, cell func(repro.Result) string, every int) {
	for i, r := range res {
		fmt.Fprintln(w, label(i, r.Config)+"\t"+cell(r))
		if every > 0 && i%every == every-1 {
			fmt.Fprintln(w)
		}
	}
}

// atRes picks an axis or a duration by resolution: full, or -quick.
func atRes[T any](full, quick T) T {
	if *quickFlag {
		return quick
	}
	return full
}

// reps is the replication rule, stated once: -reps when given, else the
// figure's own count at the chosen resolution.
func reps(full, quick int) int {
	if *repsFlag > 0 {
		return *repsFlag
	}
	return atRes(full, quick)
}

// base is the point every grid starts from: the FD algorithm on n
// processes at throughput thr, the -seed, one second of warmup.
func base(n int, thr float64, measure, drain time.Duration, replications int) repro.Config {
	return repro.Config{
		Algorithm:    repro.FD,
		N:            n,
		Throughput:   thr,
		Seed:         *seedFlag,
		Warmup:       time.Second,
		Measure:      measure,
		Drain:        drain,
		Replications: replications,
	}
}

// steadyCfg is base with the measure window scaled to gather a useful
// number of messages at throughput thr.
func steadyCfg(n int, thr float64) repro.Config {
	target := atRes(600.0, 150.0) // messages per replication
	measure := time.Duration(target / thr * float64(time.Second))
	measure = min(max(measure, 3*time.Second), 120*time.Second)
	return base(n, thr, measure, 20*time.Second, reps(3, 2))
}

var (
	fdgm = []repro.Algorithm{repro.FD, repro.GM}
	td10 = repro.Detectors(10, 0, 0)
)

// both is one point under each of the two algorithms: FD, then GM.
func both(cfg repro.Config) []repro.Config {
	return repro.Sweep{Base: cfg, Algorithms: fdgm}.Points()
}

// labels formats an axis as row labels.
func labels(format string, xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// curveOf builds a mean ± CI curve panel over the axis xs: row(x) is the
// points of x's row, one per series.
func curveOf(head []string, format string, xs []float64, row func(x float64) []repro.Config) panel {
	p := panel{head: head, xs: labels(format, xs), cell: cell}
	for _, x := range xs {
		p.steady = append(p.steady, row(x)...)
	}
	return p
}

// transientCurve builds a crash-transient curve panel: one row per
// throughput, and in it both algorithms at each detection time of tds (ms).
// The coordinator/sequencer p0 crashes at the instant p1 broadcasts the
// probe.
func transientCurve(head []string, n int, thrs, tds []float64, tcell func(repro.TransientResult) string) panel {
	p := panel{head: head, xs: labels("%.0f", thrs), tcell: tcell}
	for _, thr := range thrs {
		for _, td := range tds {
			for _, alg := range fdgm {
				cfg := base(n, thr, 0, 20*time.Second, reps(10, 5))
				cfg.Algorithm, cfg.QoS = alg, repro.Detectors(td, 0, 0)
				p.transient = append(p.transient, repro.TransientConfig{Config: cfg, Crash: 0, Sender: 1})
			}
		}
	}
	return p
}

// throughputs returns the x-axis sweep of the latency-vs-throughput
// figures.
func throughputs() []float64 {
	return atRes(
		[]float64{10, 50, 100, 200, 300, 400, 500, 600, 650, 700},
		[]float64{10, 100, 300, 500, 650})
}

// cell formats one latency ± CI pair, or "unstable".
func cell(res repro.Result) string {
	if !res.Stable {
		return "unstable\tunstable"
	}
	return meanCI(res.Latency)
}

// meanCI formats mean ± CI of whatever was measured, or "lost": the plan
// and load figures report undelivered messages honestly in their own
// column instead of suppressing the whole row as cell does.
func meanCI(s repro.Summary) string {
	if s.N == 0 {
		return "lost\tlost"
	}
	return fmt.Sprintf("%.2f\t%.2f", s.Mean, s.CI95)
}

// qcell formats one point's P50/P90/P99 columns, or "unstable".
func qcell(q repro.Quantiles, stable bool) string {
	if !stable || q.N == 0 {
		return "unstable\tunstable\tunstable"
	}
	return fmt.Sprintf("%.2f\t%.2f\t%.2f", q.P50, q.P90, q.P99)
}

// named picks a label column's value.
func named(on bool, yes, no string) string {
	if on {
		return yes
	}
	return no
}

// fig1 checks that the two algorithms generate the same failure-free
// message pattern. The latencies come from the panel's points; the wire
// counts come from a dedicated cluster run per row, which is why the
// panel lays itself out.
func fig1() []panel {
	var xs []string
	var pts []repro.Config
	for _, n := range []int{3, 7} {
		for _, thr := range []float64{10, 300} {
			xs = append(xs, fmt.Sprintf("%d\t%.0f", n, thr))
			cfg := steadyCfg(n, thr)
			cfg.Measure = 3 * time.Second
			cfg.Replications = 1
			pts = append(pts, both(cfg)...)
		}
	}
	wires := func(alg repro.Algorithm, n int) uint64 {
		c := repro.NewCluster(repro.ClusterConfig{Algorithm: alg, N: n, Seed: *seedFlag})
		for i := 0; i < 20; i++ {
			c.BroadcastAt(i%n, time.Duration(i)*7*time.Millisecond, i)
		}
		c.Run(2 * time.Second)
		return c.Stats().WireSlots
	}
	return []panel{{
		head: []string{
			"# Figure 1 check: identical failure-free message pattern (FD vs GM)",
			"# n\tthroughput(1/s)\tFD_wire_msgs\tGM_wire_msgs\tFD_lat(ms)\tGM_lat(ms)",
		},
		steady: pts,
		xs:     xs,
		emit: func(w io.Writer, res []repro.Result) {
			for i, x := range xs {
				fd, gm := res[2*i], res[2*i+1]
				fmt.Fprintf(w, "%s\t%d\t%d\t%.4f\t%.4f\n", x,
					wires(repro.FD, fd.Config.N), wires(repro.GM, gm.Config.N),
					fd.PerMessage.Mean, gm.PerMessage.Mean)
			}
			fmt.Fprintln(w)
		},
	}}
}

func fig4() (ps []panel) {
	for _, n := range []int{3, 7} {
		ps = append(ps, curveOf([]string{
			fmt.Sprintf("# Figure 4: latency vs throughput, normal-steady, n=%d", n),
			"# throughput(1/s)\tFD_lat(ms)\tFD_ci\tGM_lat(ms)\tGM_ci",
		}, "%.0f", throughputs(), func(thr float64) []repro.Config { return both(steadyCfg(n, thr)) }))
	}
	return ps
}

func fig5() (ps []panel) {
	for _, n := range []int{3, 7} {
		// One pair of curves per tolerated crash count, f < n/2.
		maxCrashes := (n - 1) / 2
		header := "# throughput(1/s)"
		for crashes := 0; crashes <= maxCrashes; crashes++ {
			header += fmt.Sprintf("\tFD_%dcr\tci\tGM_%dcr\tci", crashes, crashes)
		}
		ps = append(ps, curveOf([]string{
			fmt.Sprintf("# Figure 5: latency vs throughput, crash-steady, n=%d", n),
			header,
		}, "%.0f", throughputs(), func(thr float64) (row []repro.Config) {
			for crashes := 0; crashes <= maxCrashes; crashes++ {
				// Crash the highest PIDs — non-coordinator processes,
				// matching the paper's Fig. 5 presentation.
				cfg := steadyCfg(n, thr)
				for k := 0; k < crashes; k++ {
					cfg.Crashed = append(cfg.Crashed, repro.ProcessID(n-1-k))
				}
				row = append(row, both(cfg)...)
			}
			return row
		}))
	}
	return ps
}

// suspicionPanel is one latency-vs-QoS curve of the suspicion-steady
// figures: both algorithms at (n, thr) under each row's detector QoS.
func suspicionPanel(title, axis string, n int, thr float64, xs []float64, qos func(x float64) repro.QoS) panel {
	return curveOf([]string{title, "# " + axis + "\tFD_lat(ms)\tFD_ci\tGM_lat(ms)\tGM_ci"},
		"%.0f", xs, func(x float64) []repro.Config {
			cfg := steadyCfg(n, thr)
			cfg.QoS = qos(x)
			return both(cfg)
		})
}

// suspicionPanels are the four panels of Figs. 6 and 7 each: system size,
// throughput and — in Fig. 7, which sweeps TM — the TMR held fixed.
var suspicionPanels = []struct {
	n        int
	thr, tmr float64
}{
	{3, 10, 1000}, {7, 10, 10000}, {3, 300, 10000}, {7, 300, 100000},
}

func fig6() (ps []panel) {
	tmrs := atRes(
		[]float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 100000, 1000000},
		[]float64{10, 100, 1000, 10000, 1000000})
	for _, fig := range suspicionPanels {
		ps = append(ps, suspicionPanel(
			fmt.Sprintf("# Figure 6: latency vs TMR, suspicion-steady, TM=0, n=%d, throughput=%.0f/s", fig.n, fig.thr),
			"TMR(ms)", fig.n, fig.thr, tmrs,
			func(tmr float64) repro.QoS { return repro.Detectors(0, tmr, 0) }))
	}
	return ps
}

func fig7() (ps []panel) {
	tms := atRes([]float64{1, 3, 10, 30, 100, 300, 1000}, []float64{1, 10, 100, 1000})
	for _, fig := range suspicionPanels {
		ps = append(ps, suspicionPanel(
			fmt.Sprintf("# Figure 7: latency vs TM, suspicion-steady, n=%d, throughput=%.0f/s, TMR=%.0fms", fig.n, fig.thr, fig.tmr),
			"TM(ms)", fig.n, fig.thr, tms,
			func(tm float64) repro.QoS { return repro.Detectors(0, fig.tmr, tm) }))
	}
	return ps
}

func fig8() (ps []panel) {
	tds := []float64{0, 10, 100}
	for _, n := range []int{3, 7} {
		header := "# throughput(1/s)"
		for _, td := range tds {
			header += fmt.Sprintf("\tFD_TD%.0f\tci\tGM_TD%.0f\tci", td, td)
		}
		p := transientCurve([]string{
			"# Figure 8: latency overhead (L - TD) vs throughput, crash-transient,",
			fmt.Sprintf("# crash of the coordinator/sequencer p0 at the broadcast instant, n=%d", n),
			header,
		}, n, throughputs(), tds, func(r repro.TransientResult) string { return meanCI(r.Overhead) })
		// Quick mode measures the single pair (p0, p1), the whole panel in
		// one pool run; full mode worst-cases each point over senders.
		p.worst = atRes(true, false)
		ps = append(ps, p)
	}
	return ps
}

func ablations() []panel {
	return []panel{
		// Ablation A: the §7 coordinator renumbering optimisation,
		// crash-steady with the round-1 coordinator long dead.
		curveOf([]string{
			"# Ablation A: FD coordinator renumbering, crash-steady with p0 crashed, n=3",
			"# throughput(1/s)\trenumber_on(ms)\tci\trenumber_off(ms)\tci",
		}, "%.0f", []float64{10, 100, 300, 500}, func(thr float64) []repro.Config {
			on := steadyCfg(3, thr)
			on.Crashed = []repro.ProcessID{0}
			off := on
			off.DisableRenumber = true
			return []repro.Config{on, off}
		}),
		// Ablation B: the §8 non-uniform sequencer variant.
		curveOf([]string{
			"# Ablation B: GM uniform vs non-uniform (§8), normal-steady, n=3",
			"# throughput(1/s)\tuniform(ms)\tci\tnonuniform(ms)\tci",
		}, "%.0f", []float64{10, 100, 300, 500, 700}, func(thr float64) []repro.Config {
			return repro.Sweep{
				Base:       steadyCfg(3, thr),
				Algorithms: []repro.Algorithm{repro.GM, repro.GMNonUniform},
			}.Points()
		}),
		// Ablation C: the λ parameter of the network model (§6.1). The DSN
		// paper presents λ=1; the extended TR sweeps it.
		curveOf([]string{
			"# Ablation C: lambda sweep, normal-steady, n=3, throughput=100/s",
			"# lambda\tFD_lat(ms)\tci",
		}, "%.1f", []float64{0.5, 1, 2, 4}, func(lambda float64) []repro.Config {
			cfg := steadyCfg(3, 100)
			cfg.Lambda = lambda
			return []repro.Config{cfg}
		}),
	}
}

// figDist emits the distribution view the mean-with-CI figures cannot
// show. Block D1 revisits the suspicion-steady scenario (Fig. 6) as
// quantiles with the early/late population split: most messages deliver
// at failure-free latency while wrong suspicions push a second
// population far out, and only the split makes that visible. Block D2
// revisits the crash-transient scenario (Fig. 8) as probe-latency
// quantiles over replications.
func figDist() []panel {
	const n, thr = 3, 100.0
	d1 := curveOf([]string{
		fmt.Sprintf("# Figure D1: latency quantiles vs TMR, suspicion-steady, TM=0, n=%d, throughput=%.0f/s", n, thr),
		"# late% = share of messages above 2x the no-suspicion median latency",
		"# TMR(ms)\tFD_P50\tFD_P90\tFD_P99\tFD_late%\tGM_P50\tGM_P90\tGM_P99\tGM_late%",
	}, "%.0f", atRes([]float64{30, 100, 300, 1000, 3000, 10000}, []float64{100, 1000, 10000}),
		func(tmr float64) []repro.Config {
			cfg := steadyCfg(n, thr)
			cfg.QoS = repro.Detectors(0, tmr, 0)
			return both(cfg)
		})
	// Ahead of the rows goes the no-suspicion baseline: it prints nothing,
	// and twice its median is each algorithm's early/late threshold —
	// which is why the panel lays itself out.
	d1.steady = append(both(steadyCfg(n, thr)), d1.steady...)
	d1.emit = func(w io.Writer, res []repro.Result) {
		baseline, res := res[:2], res[2:]
		cells := make([]string, len(res))
		for i, r := range res {
			late := "unstable"
			if r.Stable && r.Quantiles.N > 0 {
				_, tail := r.Dist.SplitAt(2 * baseline[i%2].Quantiles.P50)
				late = fmt.Sprintf("%.1f", 100*float64(tail.N())/float64(r.Quantiles.N))
			}
			cells[i] = qcell(r.Quantiles, r.Stable) + "\t" + late
		}
		curve(w, d1.xs, cells)
	}

	return []panel{d1, transientCurve([]string{
		"# Figure D2: crash-transient probe latency quantiles (Fig. 8 revisited),",
		fmt.Sprintf("# crash of coordinator/sequencer p0, sender p1, n=3, TD=10ms, %d replications", reps(10, 5)),
		"# throughput(1/s)\tFD_P50\tFD_P90\tFD_P99\tGM_P50\tGM_P90\tGM_P99",
	}, 3, []float64{10, 100, 300, 500}, []float64{10},
		func(r repro.TransientResult) string { return qcell(r.Quantiles, r.Quantiles.N > 0) })}
}

// figHeartbeat drives the concrete heartbeat failure detector through
// the Sweep Detector axis: the same workload under the abstract QoS
// model and under real heartbeat traffic that contends for the wire.
func figHeartbeat() []panel {
	detectors := []*repro.HeartbeatConfig{
		nil, // abstract QoS model, perfect detector
		repro.HeartbeatDetector(10, 30),
		repro.HeartbeatDetector(20, 60),
	}
	var pts []repro.Config
	for _, thr := range []float64{10, 100, 300} {
		pts = append(pts, repro.Sweep{Base: steadyCfg(3, thr), Detectors: detectors}.Points()...)
	}
	return []panel{{
		head: []string{
			"# Figure H: concrete heartbeat FD vs abstract QoS model, normal-steady, FD algorithm, n=3",
			"# heartbeats share the contended wire, so detection cost appears as added latency",
			"# throughput(1/s)\tdetector\tmean(ms)\tci\tP50\tP90\tP99",
		},
		steady: pts,
		label: func(_ int, c repro.Config) string {
			name := "qos-model"
			if hb := c.Detector; hb != nil {
				name = fmt.Sprintf("hb-%d/%dms", hb.Interval.Milliseconds(), hb.Timeout.Milliseconds())
			}
			return fmt.Sprintf("%.0f\t%s", c.Throughput, name)
		},
		cell:  func(r repro.Result) string { return cell(r) + "\t" + qcell(r.Quantiles, r.Stable) },
		every: len(pts),
	}}
}

// stressFigure is the one body of the plan- and load-driven listings: at
// each throughput, both algorithms through every combination of the
// plans and the loads over a 5 s measure, one block per throughput. Each
// row reports mean/CI and the quantiles of whatever was delivered, then —
// with max — the maximum latency, then the undelivered count; columns
// names, and label fills, the columns that say which plan and load the
// row ran under.
func stressFigure(head []string, n int, thrs []float64, qos repro.QoS, plans []*repro.FaultPlan, loads []*repro.LoadPlan,
	columns string, label func(c repro.Config) string, max bool) []panel {
	var pts []repro.Config
	for _, thr := range thrs {
		cfg := base(n, thr, 5*time.Second, 15*time.Second, reps(3, 2))
		cfg.QoS = qos
		pts = append(pts, repro.Sweep{Base: cfg, Algorithms: fdgm, Plans: plans, Loads: loads}.Points()...)
	}
	tail := "\tundelivered"
	if max {
		tail = "\tmax" + tail
	}
	return []panel{{
		head:   append(head, "# throughput(1/s)\talg\t"+columns+"\tmean(ms)\tci\tP50\tP90\tP99"+tail),
		steady: pts,
		label: func(_ int, c repro.Config) string {
			return fmt.Sprintf("%.0f\t%v\t%s", c.Throughput, c.Algorithm, label(c))
		},
		cell: func(r repro.Result) string {
			s := meanCI(r.Latency) + "\t" + qcell(r.Quantiles, r.Quantiles.N > 0)
			if max {
				s += fmt.Sprintf("\t%.4f", r.Quantiles.Max)
			}
			return fmt.Sprintf("%s\t%d", s, r.Undelivered)
		},
		every: len(pts) / len(thrs),
	}}
}

// planFigure is a stressFigure of one fault plan against its absence.
func planFigure(head []string, n int, plan *repro.FaultPlan, name string) []panel {
	return stressFigure(head, n, atRes([]float64{10, 100, 300}, []float64{10, 100}), td10,
		[]*repro.FaultPlan{nil, plan}, nil,
		"plan", func(c repro.Config) string { return named(c.Plan != nil, name, "none") }, false)
}

// splitAndHeal is the partition of the partition and overload figures:
// {0 1 2}|{3 4} from +1.5s to +3s of the measure window (warmup is 1 s).
func splitAndHeal() *repro.FaultPlan {
	return repro.NewFaultPlan().
		Partition(2500*time.Millisecond, []repro.ProcessID{0, 1, 2}, []repro.ProcessID{3, 4}).
		Heal(4 * time.Second)
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
func figPartition() []panel {
	return planFigure([]string{
		"# Figure P: partition-and-heal, n=5, groups {0 1 2}|{3 4}, split at +1.5s, healed at +3s of a 5s measure",
		"# FD keeps the majority running and loses the minority's partition-era messages;",
		"# GM excludes and rejoins the minority (state transfer) and delivers them late.",
	}, 5, splitAndHeal(), "part+heal")
}

// figChurn drives both algorithms through a crash-recover-crash schedule
// of the coordinator/sequencer p0 — the paper's worst-case process. The
// GM algorithm pays a sequencer failover, then a rejoin with full state
// transfer, then a second failover; the crash-stop FD algorithm treats
// the recovery as the end of an outage and resumes the process with its
// state intact, closing its gap through decision-log catch-up (short
// gaps also close through ordinary decision forwarding).
func figChurn() []panel {
	warmup := time.Second
	return planFigure([]string{
		"# Figure C: churn of the coordinator/sequencer (crash p0 at +1s, recover at +2.5s,",
		"# crash again at +4s of a 5s measure), n=3, TD=10ms",
		"# GM pays sequencer failover + rejoin/state transfer; crash-stop FD resumes p0 in place.",
	}, 3, repro.NewFaultPlan().
		Crash(warmup+time.Second, 0).
		Recover(warmup+2500*time.Millisecond, 0).
		Crash(warmup+4*time.Second, 0), "churn")
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
func figOverload() []panel {
	warmup := time.Second
	return stressFigure([]string{
		"# Figure O: overload while partitioned, n=5, groups {0 1 2}|{3 4} split +1.5s..+3s,",
		"# 4x global burst +2s..+3.5s of a 5s measure, TD=10ms; all four plan combinations.",
	}, 5, atRes([]float64{10, 50, 100}, []float64{10, 50}), td10,
		[]*repro.FaultPlan{nil, splitAndHeal()},
		[]*repro.LoadPlan{nil, repro.NewLoadPlan().Burst(warmup+2*time.Second, 1500*time.Millisecond, repro.AllSenders, 4)},
		"faults\tload", func(c repro.Config) string {
			return named(c.Plan != nil, "partition", "none") + "\t" + named(c.Load != nil, "burst", "none")
		}, true)
}

// figBurst measures recovery from a pure overload spike, no faults: a
// 10x global burst for 500ms mid-measurement. During the spike the
// offered load far exceeds the wire's capacity and a backlog builds;
// the figure reports how far the latency tail stretches (P99 and max —
// the max is reached by the last message to clear the backlog, so it
// reads as the recovery horizon) and whether everything was eventually
// delivered.
func figBurst() []panel {
	warmup := time.Second
	return stressFigure([]string{
		"# Figure B: recovery from a 10x burst (500ms spike at +2s of a 5s measure), n=3",
		"# max is the latency of the last message to clear the backlog: the recovery horizon.",
	}, 3, atRes([]float64{10, 50, 100, 200}, []float64{10, 100}), repro.QoS{}, nil,
		[]*repro.LoadPlan{nil, repro.NewLoadPlan().Burst(warmup+2*time.Second, 500*time.Millisecond, repro.AllSenders, 10)},
		"load", func(c repro.Config) string { return named(c.Load != nil, "burst-10x", "steady") }, true)
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
	if len(results) == 0 {
		// Not "all digests match": a compressed trace reads as no record.
		fmt.Fprintf(os.Stderr, "replay: no replication in %s (a compressed trace replays as zcat t.gz | figures -replay /dev/stdin)\n", path)
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
