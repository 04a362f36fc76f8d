package cli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
)

// A configuration the Runner rejects becomes one line and exit code 2.
func TestRunReportsRejectedConfig(t *testing.T) {
	var stderr bytes.Buffer
	code := Run("abcast-sim", &stderr, func() {
		// abcast-sim -n 3 -crashed 2: no majority left.
		new(repro.Runner).Steady(repro.Config{N: 3, Crashed: []repro.ProcessID{2, 1}})
	})
	msg := stderr.String()
	if code != 2 || !strings.HasPrefix(msg, "abcast-sim: experiment: ") || strings.Count(msg, "\n") != 1 {
		t.Errorf("Run = %d, stderr %q; want 2 and one \"abcast-sim: experiment: …\" line", code, msg)
	}
}

func TestRunReturnsZero(t *testing.T) {
	var stderr bytes.Buffer
	if code := Run("x", &stderr, func() {}); code != 0 || stderr.Len() != 0 {
		t.Errorf("Run = %d, stderr %q; want 0 and silence", code, stderr.String())
	}
}

// Anything that is not a rejected configuration still crashes loudly.
func TestRunPropagatesBugs(t *testing.T) {
	for name, body := range map[string]func(){
		"runtime error": func() { var m map[int]int; m[0] = 1 },
		"invariant":     func() { panic("consensus: decided twice") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Run swallowed the panic", name)
				}
			}()
			Run("x", new(bytes.Buffer), body)
		}()
	}
}

// Both profile flags leave a non-empty file behind once the deferred stop
// has run; without them Start touches nothing, and a file that cannot be
// created fails Start before the run begins.
func TestProfilesWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	start := func(args ...string) (func(), error) {
		fs := flag.NewFlagSet("figures", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		p := ProfileFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return p.Start()
	}

	stop, err := start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("no flags set, yet %d files written", len(left))
	}

	stop, err = start("-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	new(repro.Runner).Steady(repro.Config{Algorithm: repro.FD, N: 3, Throughput: 100, Measure: time.Second})
	stop()
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: not written or empty (%v)", filepath.Base(path), err)
		}
	}

	if _, err := start("-cpuprofile", filepath.Join(dir, "missing", "cpu.prof")); err == nil {
		t.Error("Start succeeded on a file it cannot create")
	}
}
