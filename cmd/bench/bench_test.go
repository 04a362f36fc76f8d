package main

import (
	"regexp"
	"testing"

	"repro"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// passDigests runs the workload's first passes on the given worker count
// and returns their digests.
func passDigests(w *workload, workers int, seed uint64, passes int) []uint64 {
	cfgs := w.build()
	r := &repro.Runner{Workers: workers}
	out := make([]uint64, passes)
	for k := range out {
		res, wall := runPass(r, cfgs, seed+uint64(k))
		out[k] = summarize(res, wall).digest
	}
	return out
}

// TestSmoke runs two passes of every workload as a traced run and checks
// the output against what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	bench, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	run, log, err := runBenchmark(options{seed: 1, passes: 2, trace: true, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Workloads) != len(bench.Workloads) || len(workloads) != len(bench.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json declares %d", len(run.Workloads), len(bench.Workloads))
	}
	byName := make(map[string]*workloadRecord)
	for i := range run.Workloads {
		wl := &run.Workloads[i]
		byName[wl.Name] = wl
		if wl.Name != bench.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json declares %q", i, wl.Name, bench.Workloads[i].Name)
		}
		if !wl.Correct || wl.Failed != 0 || wl.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d failed: %v", wl.Name, wl.Correct, wl.Failed, wl.Attempted, wl.Problems)
		}
		check := func(family string, got metrics, want []declared) {
			for _, d := range want {
				v, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s is declared but not printed", wl.Name, family, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s is printed in %q, declared in %q", wl.Name, d.Name, v.Unit, d.Unit)
				}
				if !metricName.MatchString(d.Name) {
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d %s metrics printed, %d declared", wl.Name, len(got), family, len(want))
			}
		}
		check("end-to-end", wl.EndToEnd, bench.EndToEnd)
		check("per-layer", wl.PerLayer, bench.PerLayer)
		for _, d := range bench.EndToEnd {
			if wl.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v", wl.Name, d.Name, wl.EndToEnd[d.Name].Value)
			}
		}
	}

	// The paper's normal-steady result: both stacks have the same latency.
	fdRec, gmRec := byName["fd-steady"], byName["gm-steady"]
	for _, name := range []string{"virt_latency_ms_p50", "virt_latency_ms_p99"} {
		if fdRec.EndToEnd[name] != gmRec.EndToEnd[name] {
			t.Errorf("%s: fd-steady %v, gm-steady %v", name, fdRec.EndToEnd[name], gmRec.EndToEnd[name])
		}
	}

	// Every replication span is its construct plus its simulate.
	children := make(map[int]int64)
	for _, s := range log.spans {
		if s.Name == "construct" || s.Name == "simulate" {
			children[s.Parent] += int64(s.dur())
		}
	}
	replications := 0
	for _, s := range log.spans {
		if s.Name == "replication" {
			replications++
			if children[s.ID] != int64(s.dur()) {
				t.Errorf("replication span %d lasts %v, its children %v", s.ID, s.dur(), children[s.ID])
			}
		}
	}
	if replications == 0 {
		t.Error("no replication spans recorded")
	}
}

// TestDigestIsDeterministic: equal seeds give equal digests at any worker
// count, different seeds different ones.
func TestDigestIsDeterministic(t *testing.T) {
	w := findWorkload("sweep-short")
	two := passDigests(w, 2, 1, 1)
	one := passDigests(w, 1, 1, 1)
	other := passDigests(w, 2, 2, 1)
	if two[0] != one[0] {
		t.Errorf("digest %x at Workers 2, %x at Workers 1", two[0], one[0])
	}
	if two[0] == other[0] {
		t.Errorf("seeds 1 and 2 share digest %x", two[0])
	}
	if again := passDigests(w, 2, 1, 1); again[0] != two[0] {
		t.Errorf("digest %x, then %x on the same seed", two[0], again[0])
	}
}

// TestInjectedFaultFailsTheRun: the checked passes must turn a planted
// specification fault into an incorrect run.
func TestInjectedFaultFailsTheRun(t *testing.T) {
	run, _, err := runBenchmark(options{names: []string{"groups-shard"}, seed: 1, passes: 1, quick: true, inject: "order"})
	if err != nil {
		t.Fatal(err)
	}
	if wl := run.Workloads[0]; wl.Correct || wl.Failed == 0 {
		t.Errorf("planted fault: correct=%v, failed=%d", wl.Correct, wl.Failed)
	}
}
