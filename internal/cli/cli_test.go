package cli

import (
	"bytes"
	"strings"
	"testing"

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
