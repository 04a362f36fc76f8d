// Command abcast-sim runs one benchmark scenario from the paper's
// methodology and prints its latency statistics. It is the interactive
// companion to cmd/figures: one point instead of a sweep.
//
// Examples:
//
//	abcast-sim -alg fd -n 3 -throughput 300                 # normal-steady
//	abcast-sim -alg gm -n 7 -crashed 2 -throughput 100      # crash-steady
//	abcast-sim -alg gm -n 3 -tmr 100 -tm 5 -throughput 10   # suspicion-steady
//	abcast-sim -alg fd -n 3 -transient -td 10 -throughput 50
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/cli"
)

var (
	algFlag       = flag.String("alg", "fd", "algorithm: fd, gm or gm-nu")
	nFlag         = flag.Int("n", 3, "number of processes")
	thrFlag       = flag.Float64("throughput", 100, "overall A-broadcast rate (1/s)")
	lambdaFlag    = flag.Float64("lambda", 1, "CPU/wire cost ratio of the network model")
	tdFlag        = flag.Float64("td", 0, "failure detection time TD (ms)")
	tmrFlag       = flag.Float64("tmr", 0, "mistake recurrence time TMR (ms); 0 = no wrong suspicions")
	tmFlag        = flag.Float64("tm", 0, "mistake duration TM (ms)")
	crashedFlag   = flag.Int("crashed", 0, "number of long-ago crashed processes (crash-steady)")
	transientFlag = flag.Bool("transient", false, "run the crash-transient scenario instead of steady state")
	sweepFlag     = flag.Bool("worst", false, "with -transient: maximise over senders (the paper's Lcrash)")
	seedFlag      = flag.Uint64("seed", 1, "random seed")
	warmupFlag    = flag.Duration("warmup", 2*time.Second, "virtual warmup before measuring")
	measureFlag   = flag.Duration("measure", 10*time.Second, "virtual measurement window")
	repsFlag      = flag.Int("reps", 5, "replications")
	workersFlag   = flag.Int("workers", 0, "parallel replication workers (0 = GOMAXPROCS, 1 = serial)")
	profiles      = cli.ProfileFlags(flag.CommandLine)
)

func algorithm(name string) repro.Algorithm {
	switch name {
	case "fd":
		return repro.FD
	case "gm":
		return repro.GM
	case "gm-nu":
		return repro.GMNonUniform
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q (want fd, gm or gm-nu)\n", name)
		os.Exit(2)
		return 0
	}
}

func main() {
	flag.Parse()
	os.Exit(cli.Run("abcast-sim", os.Stderr, run))
}

func run() {
	alg := algorithm(*algFlag) // exits on an unknown name, before a profile starts
	stop, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abcast-sim:", err)
		os.Exit(2)
	}
	defer stop()
	cfg := repro.Config{
		Algorithm:    alg,
		N:            *nFlag,
		Throughput:   *thrFlag,
		Lambda:       *lambdaFlag,
		QoS:          repro.Detectors(*tdFlag, *tmrFlag, *tmFlag),
		Seed:         *seedFlag,
		Warmup:       *warmupFlag,
		Measure:      *measureFlag,
		Replications: *repsFlag,
	}
	for k := 0; k < *crashedFlag; k++ {
		cfg.Crashed = append(cfg.Crashed, repro.ProcessID(*nFlag-1-k))
	}
	runner := &repro.Runner{Workers: *workersFlag}

	if *transientFlag {
		tc := repro.TransientConfig{Config: cfg, Crash: 0, Sender: 1}
		var res repro.TransientResult
		if *sweepFlag {
			res = runner.WorstCaseTransient(tc)
		} else {
			res = runner.Transient(tc)
		}
		fmt.Printf("crash-transient: alg=%v n=%d T=%.0f/s TD=%.0fms crash=p%d sender=p%d\n",
			cfg.Algorithm, cfg.N, cfg.Throughput, *tdFlag, res.Config.Crash, res.Config.Sender)
		fmt.Printf("  latency   %s ms\n", res.Latency)
		fmt.Printf("  overhead  %s ms (latency - TD)\n", res.Overhead)
		if res.Lost > 0 {
			fmt.Printf("  LOST %d probes\n", res.Lost)
		}
		return
	}

	res := runner.Steady(cfg)
	scenario := "normal-steady"
	if len(cfg.Crashed) > 0 {
		scenario = "crash-steady"
	}
	if *tmrFlag > 0 {
		scenario = "suspicion-steady"
	}
	fmt.Printf("%s: alg=%v n=%d T=%.0f/s lambda=%.1f crashed=%d TMR=%.0fms TM=%.0fms\n",
		scenario, cfg.Algorithm, cfg.N, cfg.Throughput, cfg.Lambda,
		len(cfg.Crashed), *tmrFlag, *tmFlag)
	fmt.Printf("  latency    %s ms (replication means, 95%% CI)\n", res.Latency)
	fmt.Printf("  per-msg    %s ms  min=%.2f max=%.2f\n", res.PerMessage, res.PerMessage.Min, res.PerMessage.Max)
	fmt.Printf("  messages   %d measured", res.Messages)
	if !res.Stable {
		fmt.Printf("  UNSTABLE (%d undelivered)", res.Undelivered)
	}
	fmt.Println()
}
