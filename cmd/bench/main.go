// Command bench is the repository's benchmark: one command that runs six
// workloads of the simulator, checks that their outputs are correct, and
// prints every end-to-end and per-layer metric by name with its unit.
//
// Every run has two clocks. Host time is what the simulator costs: timed
// passes with no observer attached give msgs_per_s, allocations, memory
// and set-up time. Virtual time is what the modelled protocols cost:
// the pooled per-message latency is exact for a seed, so a simulator-only
// change must leave it bit-identical. A separate checked replay of the
// first timed passes carries the observer that checks the atomic
// broadcast specification, counts network events per layer and records
// spans; isolated drives time each layer's public functions on their own.
//
// Usage, from the repository root (the package is a module of its own):
//
//	go run -C cmd/bench . [-workload name]... [-seed n] [-seconds s | -passes n]
//	    [-trace 0|1] [-out results.json] [-spans spans.json]
//	go run -C cmd/bench . -compare old.json new.json
//
// See README.md in this directory for the workloads, the metrics and how
// they are expected to move.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

const (
	// fullPasses is the timed pass count of a run given neither -seconds
	// nor -passes.
	fullPasses = 110
	// Checked passes replay the first timed seeds: ten when the per-layer
	// metrics are wanted, two to check the outputs otherwise.
	tracedPasses  = 10
	checkedPasses = 2
)

// options selects what one invocation runs.
type options struct {
	names   []string
	seed    uint64
	seconds float64 // time budget of each workload's timed passes; 0 with passes set
	passes  int     // fixed timed pass count per workload; 0 with seconds set
	trace   bool
	inject  string
	// quick is the smoke test's mode: one set-up without warm-up passes,
	// and drives at a hundredth of their loop counts, run once.
	quick bool
}

type nameList []string

func (l *nameList) String() string     { return strings.Join(*l, ",") }
func (l *nameList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var names nameList
	flag.Var(&names, "workload", "workload to run (repeatable; default all)")
	seed := flag.Uint64("seed", 1, "pass k runs every point with seed+k")
	seconds := flag.Float64("seconds", 0, "measure each workload for this long instead of a fixed pass count")
	passes := flag.Int("passes", 0, fmt.Sprintf("timed passes per workload (default %d without -seconds)", fullPasses))
	trace := flag.Int("trace", 1, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics only")
	out := flag.String("out", "", "append the run to this result file")
	spans := flag.String("spans", "", "write the spans to this file (Chrome trace-event JSON)")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	inject := flag.String("inject", "", "plant a fault in the checked stream (dup, order, phantom): the command must fail")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	switch *inject {
	case "", "dup", "order", "phantom":
	default:
		fatal(fmt.Errorf("unknown fault %q: -inject takes dup, order or phantom", *inject))
	}
	o := options{names: names, seed: *seed, seconds: *seconds, passes: *passes, trace: *trace != 0, inject: *inject}
	if o.seconds <= 0 && o.passes <= 0 {
		o.passes = fullPasses
	}
	run, log, err := runBenchmark(o)
	if err != nil {
		fatal(err)
	}
	run.print(os.Stdout)
	if *spans != "" {
		if err := log.write(*spans); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := appendRun(*out, *run); err != nil {
			fatal(err)
		}
	}
	if len(run.Workloads) == 1 {
		fmt.Println(run.Workloads[0].contractLine(o.trace))
	}
	for _, wl := range run.Workloads {
		if !wl.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runBenchmark measures the selected workloads: set-up, the timed passes
// in interleaved blocks, the checked passes, then — in a traced run — the
// drives.
func runBenchmark(o options) (*runRecord, *spanLog, error) {
	start := time.Now()
	// Two cores at most: the reference container has two, and a pinned
	// value keeps GC and worker parallelism equal across hosts.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	selected := make([]*workload, 0, len(workloads))
	if len(o.names) == 0 {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, name := range o.names {
		w := findWorkload(name)
		if w == nil {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		selected = append(selected, w)
	}

	log := &spanLog{}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2 // the checked passes and the drives take the other half
	}
	checked := checkedPasses
	if o.trace {
		checked = tracedPasses
	}
	if o.passes > 0 && checked > o.passes {
		checked = o.passes
	}

	setupCount, warmups, retention := setups, warmupPasses, retentionPasses
	drives := driver{log: log, scale: 1, repeats: driveRepeats, seed: o.seed, m: metrics{}}
	if o.quick {
		setupCount, warmups, retention = 1, 0, 1
		drives.scale, drives.repeats = 0.01, 1
	}

	states := make([]*wstate, len(selected))
	closers := make([]func(), len(selected))
	for i, w := range selected {
		s := &wstate{w: w, seed: o.seed, log: log, virtPasses: w.virtPasses}
		if o.passes > 0 {
			s.virtPasses = o.passes // a fixed count pools every timed pass
		}
		s.span, closers[i] = log.open("workload "+w.name, 0, 0)
		s.tr = &tracer{log: log, busyPoint: w.busyPoint, agg: &traceAgg{sendsByKind: make(map[string]int)}}
		s.setup(setupCount, warmups)
		states[i] = s
	}
	states[0].tr.inject = o.inject

	for b := 0; b < blocks; b++ {
		for _, s := range states {
			// Spread the pass count over the blocks, the remainder going
			// to the last ones: the final block is never empty.
			n := s.virtPasses / blocks
			if b >= blocks-s.virtPasses%blocks {
				n++
			}
			if n > 0 || budget > 0 {
				s.timedBlock(n, budget/blocks)
			}
		}
	}
	// Only now has every workload folded and dropped its virtual pool, so
	// a heap reading sees the program's retained state and little else.
	for _, s := range states {
		s.retained(retention)
	}

	passID := 0
	for _, s := range states {
		if o.trace && s.w.workers != 1 {
			s.serialBaseline(checked)
		}
		for k := 0; k < checked; k++ {
			passID++
			s.checkedPass(k, passID)
		}
	}
	for _, done := range closers {
		done()
	}

	run := &runRecord{
		Host:       readHost(),
		Commit:     readCommit(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Passes:     o.passes,
		Trace:      o.trace,
		SingleCore: runtime.NumCPU() < 2,
	}
	for _, s := range states {
		rec := s.record(checked)
		rec.SingleCore = run.SingleCore && s.w.workers > 1
		run.Workloads = append(run.Workloads, rec)
	}

	if o.trace {
		var done func()
		drives.parent, done = log.open("drives", 0, 0)
		drives.run()
		drives.runExtras()
		for i, s := range states {
			// sim.events_per_msg is the one drive that depends on the
			// workload: it runs the workload's first point.
			driven := drives.span("sim.events_per_msg")
			events := eventsPerMsg(s.cfgs[0], o.seed)
			driven()
			run.Workloads[i].finishTraced(s, &drives, events)
		}
		done()
	}
	run.WallS = time.Since(start).Seconds()
	return run, log, nil
}
