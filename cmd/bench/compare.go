package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the command reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	path, err := findUp("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// side is one result file's view of one workload.
type side struct {
	runs   []*workloadRecord
	seeds  []uint64
	failed float64 // failed share over all runs
}

func gather(runs []runRecord, name string) side {
	var s side
	attempted, failed := 0, 0
	for i := range runs {
		for j := range runs[i].Workloads {
			if wl := &runs[i].Workloads[j]; wl.Name == name {
				s.runs = append(s.runs, wl)
				s.seeds = append(s.seeds, runs[i].Seed)
				attempted += wl.Attempted
				failed += wl.Failed
			}
		}
	}
	s.failed = ratio(float64(failed), float64(attempted))
	return s
}

// values returns the metric's value in every run.
func (s side) values(pick func(*workloadRecord) metrics, name string) []float64 {
	var out []float64
	for _, wl := range s.runs {
		if v, ok := pick(wl)[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the run-to-run spread of a metric as a share of its median:
// the distance between the quartiles with four runs or more, the range
// with two or three, and with a single run the range of its blocks of
// timed passes, for the metrics the blocks carry.
func (s side) spread(name string, vals []float64) float64 {
	switch {
	case len(vals) >= 4:
		return ratio(quantile(vals, 0.75)-quantile(vals, 0.25), median(vals))
	case len(vals) >= 2:
		return ratio(quantile(vals, 1)-quantile(vals, 0), median(vals))
	case len(s.runs) == 1:
		var blocks []float64
		for _, b := range s.runs[0].Blocks {
			switch name {
			case "msgs_per_s":
				blocks = append(blocks, b.MsgsPerS)
			case "allocs_per_msg":
				blocks = append(blocks, b.AllocsPerMsg)
			case "bytes_per_msg":
				blocks = append(blocks, b.BytesPerMsg)
			}
		}
		return ratio(quantile(blocks, 1)-quantile(blocks, 0), median(blocks))
	}
	return 0
}

func sameSeeds(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func endToEndOf(wl *workloadRecord) metrics { return wl.EndToEnd }
func perLayerOf(wl *workloadRecord) metrics { return wl.PerLayer }

// compareFiles prints, per workload and end-to-end metric, both medians,
// the delta, the bound and a verdict; per-layer metrics are listed, never
// gated. It reports whether anything regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	bench, err := loadBenchmarkFile()
	if err != nil {
		return false, err
	}
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		return false, err
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		return false, err
	}
	for _, wl := range bench.Workloads {
		o, n := gather(oldRuns, wl.Name), gather(newRuns, wl.Name)
		if len(o.runs) == 0 || len(n.runs) == 0 {
			continue
		}
		fmt.Fprintf(w, "workload %s (%d old runs, %d new)\n", wl.Name, len(o.runs), len(n.runs))
		exact := sameSeeds(o.seeds, n.seeds)
		for _, d := range bench.EndToEnd {
			ov, nv := o.values(endToEndOf, d.Name), n.values(endToEndOf, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			delta := ratio(nm-om, om)
			worse := delta
			if d.Better == "higher" {
				worse = -delta
			}
			bound := d.Bound
			if exact && strings.HasPrefix(d.Name, "virt_") {
				bound = 0 // virtual time is exact for a seed: any change is a change of behaviour
			}
			spread := o.spread(d.Name, ov)
			if s := n.spread(d.Name, nv); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case bound == 0 && delta != 0:
				verdict = "regressed"
			case worse > bound && spread > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "regressed"
			}
			if verdict == "regressed" {
				regressed = true
			}
			fmt.Fprintf(w, "  %-22s %14.6g -> %14.6g %-10s %+8.2f%%  bound %5.1f%%  spread %5.1f%%  %s\n",
				d.Name, om, nm, d.Unit, 100*delta, 100*bound, 100*spread, verdict)
		}
		verdict := "ok"
		if n.failed > o.failed {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "  %-22s %14.6g -> %14.6g %-10s %s\n", "failed_share", o.failed, n.failed, "ratio", verdict)
		if exact && o.runs[0].VirtDigest != n.runs[0].VirtDigest {
			regressed = true
			fmt.Fprintf(w, "  virt_digest %s -> %s at equal seeds: regressed (behaviour changed)\n", o.runs[0].VirtDigest, n.runs[0].VirtDigest)
		}
		for _, d := range bench.PerLayer {
			ov, nv := o.values(perLayerOf, d.Name), n.values(perLayerOf, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			fmt.Fprintf(w, "    %-36s %14.6g -> %14.6g %-10s %+8.2f%%\n", d.Name, om, nm, d.Unit, 100*ratio(nm-om, om))
		}
	}
	return regressed, nil
}
