package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo stamps a run with where it was measured.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// workloadRecord is one workload's part of a run.
type workloadRecord struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Problems says why Correct is false.
	Problems    []string `json:"problems,omitempty"`
	TimedPasses int      `json:"timed_passes"`
	CheckedPass int      `json:"checked_passes"`
	VirtPasses  int      `json:"virt_passes"`
	VirtSamples int      `json:"virt_samples"`
	VirtDigest  string   `json:"virt_digest"`
	EndToEnd    metrics  `json:"end_to_end"`
	PerLayer    metrics  `json:"per_layer,omitempty"`
	// Estimates split simulate time below the spans: a traced count times
	// a drive's unit cost, hence est_.
	Estimates metrics `json:"estimates,omitempty"`
	// SendsByKind counts the checked passes' network sends by payload
	// kind.
	SendsByKind map[string]int `json:"sends_by_kind"`
	Blocks      []blockStat    `json:"blocks"`
	// PassMs and PassMsgs are the timed passes' walls and message counts,
	// the samples behind msgs_per_s and the runner.pass_ms quantiles.
	PassMs       []float64 `json:"pass_ms"`
	PassMsgs     []int     `json:"pass_msgs"`
	SingleCore   bool      `json:"single_core,omitempty"`
	Replications int       `json:"checked_replications"`
}

// finishTraced completes the record of a traced run: the workload's own
// traced metrics joined with the drives, which every workload repeats.
func (wl *workloadRecord) finishTraced(s *wstate, drives *driver, eventsPerMsg float64) {
	wl.PerLayer = s.traced()
	for name, v := range drives.m {
		wl.PerLayer[name] = v
	}
	wl.PerLayer.set("sim.events_per_msg", eventsPerMsg, "events/msg")
	wl.Problems = append(wl.Problems, drives.problems...)
	wl.Correct = len(wl.Problems) == 0

	a := s.tr.agg
	simulateNs := float64(a.simulate)
	events := wl.PerLayer["sim.events_per_msg"].Value * float64(a.broadcasts)
	wl.Estimates = metrics{}
	wl.Estimates.set("est_sim_share", ratio(events*wl.PerLayer["sim.ns_per_event"].Value, simulateNs), "ratio")
	wl.Estimates.set("est_netmodel_share", ratio(float64(a.delivers)*wl.PerLayer["netmodel.ns_per_delivery"].Value, simulateNs), "ratio")
}

// runRecord is one invocation of the command; a result file holds a list
// of them, appended to by -out.
type runRecord struct {
	Host       hostInfo         `json:"host"`
	Commit     string           `json:"commit"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds,omitempty"`
	Passes     int              `json:"passes,omitempty"`
	Trace      bool             `json:"trace"`
	WallS      float64          `json:"wall_s"`
	SingleCore bool             `json:"single_core,omitempty"`
	Workloads  []workloadRecord `json:"workloads"`
}

type resultFile struct {
	Runs []runRecord `json:"runs"`
}

// findUp looks for name in the working directory and its parents: the
// command runs from cmd/bench under `go run -C`, from the root otherwise.
func findUp(name string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s: %w", name, fs.ErrNotExist)
		}
		dir = parent
	}
}

func readHost() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			break
		}
	}
	return h
}

// readCommit resolves HEAD of the enclosing git repository, "unknown"
// outside one (the driver's checkout is not a repository).
func readCommit() string {
	gitDir, err := findUp(".git")
	if err != nil {
		return "unknown"
	}
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return ref // packed ref: the name is the best the stamp can do without git
}

// appendRun adds the run to the result file at path, creating it if
// needed.
func appendRun(path string, run runRecord) error {
	var file resultFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	file.Runs = append(file.Runs, run)
	data, err = json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadRuns(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return file.Runs, nil
}

func printMetrics(w io.Writer, title string, m metrics) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s\n", title)
	for _, name := range m.names() {
		fmt.Fprintf(w, "    %-38s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// print writes every metric of the run by name, with its unit.
func (r *runRecord) print(w io.Writer) {
	fmt.Fprintf(w, "host: %s, %d CPUs, GOMAXPROCS %d, %s; commit %s; seed %d; wall %.1f s\n",
		r.Host.CPU, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.Go, r.Commit, r.Seed, r.WallS)
	if r.SingleCore {
		fmt.Fprintln(w, "WARNING: one CPU: sweep-short runs its two workers on one core, and runner.speedup_w2 and sim.psim_speedup_w2 read 0 (single-core), not a speed-up")
	}
	for i := range r.Workloads {
		wl := &r.Workloads[i]
		verdict := "correct"
		if !wl.Correct {
			verdict = "INCORRECT: " + strings.Join(wl.Problems, "; ")
		}
		fmt.Fprintf(w, "workload %s: %d timed passes, %d checked (%d replications), %d of %d messages failed, virt_digest %s over %d passes (%d samples): %s\n",
			wl.Name, wl.TimedPasses, wl.CheckedPass, wl.Replications, wl.Failed, wl.Attempted, wl.VirtDigest, wl.VirtPasses, wl.VirtSamples, verdict)
		printMetrics(w, fmt.Sprintf("end to end (msgs_per_s: p%.0f of the %d per-pass rates)", 100*quietRate, wl.TimedPasses), wl.EndToEnd)
		printMetrics(w, "per layer", wl.PerLayer)
		printMetrics(w, "estimates (count x drive unit cost over simulate time)", wl.Estimates)
	}
}

// contractLine is the last line of standard output when one workload ran.
func (wl *workloadRecord) contractLine(trace bool) string {
	m := wl.EndToEnd
	if trace {
		m = wl.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{wl.Correct, wl.Attempted, wl.Failed, m})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(line)
}
