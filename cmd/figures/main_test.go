package main

import (
	"bytes"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/experiment"
	"repro/internal/golden"
)

// TestQuickFiguresMatchGolden pins every figure's -quick -seed 1 output:
// golden/figures_quick.tsv is "-fig all", then the by-name figures nscale
// and groups; smoke has its own golden, which CI also replays. Every
// replication runs under the specification checker, and any finding
// fails the test.
func TestQuickFiguresMatchGolden(t *testing.T) {
	*quickFlag, *seedFlag, *repsFlag = true, 1, 0
	var quick, smoke bytes.Buffer
	for _, inAll := range []bool{true, false} {
		for _, f := range figures {
			w := &quick
			if f.name == "smoke" {
				w = &smoke
			}
			if f.inAll == inAll {
				for i, p := range f.panels() {
					// A checker per point: a worst-case point is a batch of its own.
					invs := make([]experiment.Invariants, len(p.steady)+len(p.transient))
					for k := range p.steady {
						p.steady[k].Observers = append(slices.Clip(p.steady[k].Observers), invs[k].Observer)
					}
					for k := range p.transient {
						p.transient[k].Observers = append(slices.Clip(p.transient[k].Observers), invs[k].Observer)
					}
					p.render(w, &repro.Runner{})
					for k := range invs {
						if err := invs[k].Err(); err != nil {
							t.Errorf("fig %s panel %d point %d: %v", f.name, i, k, err)
						}
					}
				}
			}
		}
	}
	for path, got := range map[string]*bytes.Buffer{
		"../../golden/figures_quick.tsv": &quick,
		"../../golden/figures_smoke.tsv": &smoke,
	} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if diff := golden.Diff(got.String(), string(want)); diff != "" {
			t.Errorf("%s: output differs from the golden at %s", path, diff)
		}
	}
}

// TestFigureTable checks the table itself: the names and what "all"
// selects, that the help text and the unknown-figure error are derived
// from it, and — at both resolutions, without running a point — that every
// panel's point list is exactly what its row layout consumes.
func TestFigureTable(t *testing.T) {
	const names = "1 4 5 6 7 8 dist hb partition churn overload burst nscale groups smoke ablations"
	var have []string
	inAll := 0
	for _, f := range figures {
		have = append(have, f.name)
		if f.inAll {
			inAll++
		}
	}
	if got := strings.Join(have, " "); got != names {
		t.Errorf("figure names = %q, want %q", got, names)
	}
	if all, err := selected("all"); err != nil || len(all) != inAll || inAll != 13 {
		t.Errorf(`selected("all") = %d figures, %v; want the %d inAll rows (13)`, len(all), err, inAll)
	}
	for _, name := range have {
		if one, err := selected(name); err != nil || len(one) != 1 {
			t.Errorf("selected(%q) = %d figures, %v", name, len(one), err)
		}
	}
	list := strings.Join(append(have, "all"), ", ")
	_, err := selected("nope")
	for what, text := range map[string]string{"-fig usage": flag.Lookup("fig").Usage, "unknown-figure error": err.Error()} {
		if !strings.Contains(text, list) {
			t.Errorf("%s %q does not list %q", what, text, list)
		}
	}

	for _, quick := range []bool{true, false} {
		*quickFlag, *seedFlag, *repsFlag = quick, 1, 0
		for _, f := range figures {
			for i, p := range f.panels() {
				checkLayout(t, p, f.name, i, quick)
			}
		}
	}
}

// checkLayout renders the panel from placeholder results — each point's
// Config and nothing measured — and checks the block's shape: one row per
// x-value (curve) or per point (listing), every row as wide as the column
// header. A point list that is short, long or indexed wrongly for its
// layout panics or misshapes a row here.
func checkLayout(t *testing.T, p panel, fig string, i int, quick bool) {
	t.Helper()
	if (p.steady == nil) == (p.transient == nil) {
		t.Fatalf("fig %s panel %d: want exactly one of steady and transient points", fig, i)
	}
	points, rows := len(p.steady)+len(p.transient), len(p.xs)
	if rows == 0 {
		rows = points
	}
	if p.emit == nil && points%rows != 0 {
		t.Errorf("fig %s panel %d (quick=%v): %d points do not fill %d rows", fig, i, quick, points, rows)
	}
	res := make([]repro.Result, len(p.steady))
	for k, cfg := range p.steady {
		res[k].Config = cfg
	}
	var tres []repro.TransientResult
	if p.transient != nil {
		tres = make([]repro.TransientResult, len(p.transient))
	}
	var out bytes.Buffer
	p.write(&out, res, tres)

	columns := strings.Count(p.head[len(p.head)-1], "\t")
	got := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		got++
		if n := strings.Count(line, "\t"); n != columns {
			t.Errorf("fig %s panel %d (quick=%v): row %q has %d columns, header %q has %d",
				fig, i, quick, line, n+1, p.head[len(p.head)-1], columns+1)
		}
	}
	if got != rows {
		t.Errorf("fig %s panel %d (quick=%v): %d rows, want %d", fig, i, quick, got, rows)
	}
}
