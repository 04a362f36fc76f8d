// Package golden is the one corpus of golden digests, golden/digests.txt at
// the module root, and the one way to compare a run with it. Each case is a
// line of the file: its name, its record count, the 64-bit FNV-1a digest of
// its records (each followed by '\n'), which is the fence, and one 32-bit
// FNV-1a digest per block of 64 records, which only locates a divergence.
// Only tests import this package.
package golden

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// blockLen is the number of records one block digest covers.
const blockLen = 64

// corpus is golden/digests.txt at the module root, found once from the
// package directory a test runs in.
var corpus = func() string {
	dir, _ := os.Getwd()
	for dir != filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		dir = filepath.Dir(dir)
	}
	return filepath.Join(dir, "golden", "digests.txt")
}()

// Records holds one case's records. The zero value is an empty case.
type Records struct{ lines []string }

// Lines returns the records of text, one per line; text ends in '\n', so
// the digest is FNV-1a over text's bytes.
func Lines(text string) *Records {
	return &Records{strings.Split(strings.TrimSuffix(text, "\n"), "\n")}
}

// Add appends one record; line holds no '\n'.
func (r *Records) Add(line string) { r.lines = append(r.lines, line) }

// Addf appends the record fmt.Sprintf(format, args...).
func (r *Records) Addf(format string, args ...any) { r.Add(fmt.Sprintf(format, args...)) }

// Sum is the 64-bit digest of the records.
func (r *Records) Sum() uint64 {
	sum, _ := r.digests()
	return sum
}

// digests returns the 64-bit digest and each block's digest in hex.
func (r *Records) digests() (uint64, []string) {
	h, blocks, buf := fnv.New64a(), []string{}, []byte{}
	for first := 0; first < len(r.lines); first += blockLen {
		b := fnv.New32a()
		for _, line := range r.lines[first:min(first+blockLen, len(r.lines))] {
			buf = append(append(buf[:0], line...), '\n')
			h.Write(buf)
			b.Write(buf)
		}
		blocks = append(blocks, fmt.Sprintf("%08x", b.Sum32()))
	}
	return h.Sum64(), blocks
}

// Check fails t with Report's text unless r matches the case name; it
// uses t.Error, so one run reports every moved case.
func Check(t testing.TB, name string, r *Records) {
	t.Helper()
	if report := Report(name, r); report != "" {
		t.Error(report)
	}
}

// Report compares r with the case name in the corpus, "" on a match. A
// moved case reads both counts and digests, the records of the first block
// whose digest differs and the replacement line; a missing one, the line
// to add; a name recorded twice in the corpus is refused.
func Report(name string, r *Records) string {
	compared.Store(name, true)
	data, err := os.ReadFile(corpus)
	cases := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		key, _, _ := strings.Cut(line, "\t")
		if _, dup := cases[key]; dup && err == nil && key != "" && key[0] != '#' {
			err = fmt.Errorf("%s:%d: case %q is recorded twice", corpus, i+1, key)
		}
		cases[key] = line
	}
	sum, blocks := r.digests()
	got := fmt.Sprintf("%s\t%d\t%016x\t%s", name, len(r.lines), sum, strings.Join(blocks, " "))
	want, ok := cases[name]
	switch {
	case err != nil:
		return fmt.Sprintf("golden: %v", err)
	case !ok:
		return fmt.Sprintf("golden: %s has no case %q; add the line\n%s", corpus, name, got)
	case want == got:
		return ""
	}
	w := append(strings.Split(want, "\t"), "", "", "") // padded: a malformed line reads as a moved case
	report := fmt.Sprintf("golden: case %q moved\nrecorded %s records, digest %s\nnow      %d records, digest %016x",
		name, w[1], w[2], len(r.lines), sum)
	k := firstDiff(strings.Fields(w[3]), blocks)
	if first, end := k*blockLen, min((k+1)*blockLen, len(r.lines)); first < end {
		report += fmt.Sprintf("\nfirst divergent block %d, records %d-%d, now reads:", k, first, end-1)
		for i := first; i < end; i++ {
			report += fmt.Sprintf("\n%7d %s", i, r.lines[i])
		}
	}
	return report + fmt.Sprintf("\nreplace its line in %s with\n%s", corpus, got)
}

// Diff names the first line, and the first tab-separated field in it, at
// which got differs from want, and prints both lines; "" when they agree.
func Diff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got+"\n(no line)", "\n"), strings.Split(want+"\n(no line)", "\n")
	i := min(firstDiff(g, w), len(g)-1, len(w)-1)
	j := firstDiff(strings.Split(g[i], "\t"), strings.Split(w[i], "\t"))
	return fmt.Sprintf("line %d, field %d differs\n got: %s\nwant: %s", i+1, j+1, g[i], w[i])
}

// firstDiff is the first index at which a and b differ.
func firstDiff(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// compared holds every case name Report compared in this test binary.
var compared sync.Map

// Main runs m's tests and returns the code for os.Exit: a package's
// TestMain is os.Exit(golden.Main(m, its case prefixes...)). A run that
// passed and selected every test (no -run, -skip or -list) still fails if
// a corpus case under one of prefixes was never compared, naming its line:
// a dropped scenario would otherwise leave its line in the file unseen.
func Main(m *testing.M, prefixes ...string) int {
	code := m.Run()
	if code != 0 || flag.Lookup("test.run").Value.String()+flag.Lookup("test.skip").Value.String()+flag.Lookup("test.list").Value.String() != "" {
		return code
	}
	stale := uncompared(prefixes)
	for _, line := range stale {
		fmt.Fprintf(os.Stderr, "golden: %s: no test compared it; a dropped test takes its line along\n", line)
	}
	if len(stale) > 0 {
		return 1
	}
	return 0
}

// uncompared lists, as `file:line: case "name"`, the corpus cases under
// prefixes that Report never compared.
func uncompared(prefixes []string) []string {
	data, err := os.ReadFile(corpus)
	if err != nil {
		return []string{err.Error()}
	}
	var stale []string
	for i, line := range strings.Split(string(data), "\n") {
		name, _, _ := strings.Cut(line, "\t")
		under := slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) })
		if _, ok := compared.Load(name); under && !ok {
			stale = append(stale, fmt.Sprintf("%s:%d: case %q", corpus, i+1, name))
		}
	}
	return stale
}
