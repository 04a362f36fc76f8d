package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"repro"
)

// capture runs f with os.Stdout redirected into a buffer.
func capture(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	f()
	os.Stdout = stdout
	w.Close()
	return <-done
}

// TestQuickFiguresMatchGolden pins every figure's -quick -seed 1 output:
// golden/figures_quick.tsv is "-fig all", then the by-name figures nscale
// and groups; smoke has its own golden, which CI also replays.
func TestQuickFiguresMatchGolden(t *testing.T) {
	*quickFlag, *seedFlag, *repsFlag = true, 1, 0
	runner = &repro.Runner{}
	var quick, smoke []byte
	for _, inAll := range []bool{true, false} {
		for _, f := range figures {
			switch {
			case f.name == "smoke":
				if !inAll {
					smoke = capture(t, f.run)
				}
			case f.inAll == inAll:
				quick = append(quick, capture(t, f.run)...)
			}
		}
	}
	for _, g := range []struct {
		path string
		got  []byte
	}{
		{"../../golden/figures_quick.tsv", quick},
		{"../../golden/figures_smoke.tsv", smoke},
	} {
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: output differs from the golden (%d bytes, want %d)", g.path, len(g.got), len(want))
		}
	}
}
