package golden

import (
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// report checks r as the case "c" against a corpus of lines.
func report(t *testing.T, r *Records, lines ...string) string {
	path := filepath.Join(t.TempDir(), "digests.txt")
	if err := os.WriteFile(path, []byte("# header\n"+strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func(real string) { corpus = real }(corpus)
	corpus = path
	return Report("c", r)
}

// records is a case of n records, "record 0" to "record n-1".
func records(n int) *Records {
	var r Records
	for i := 0; i < n; i++ {
		r.Addf("record %d", i)
	}
	return &r
}

func TestCheck(t *testing.T) {
	text := strings.Join(records(200).lines, "\n") + "\n"
	h := fnv.New64a()
	h.Write([]byte(text))
	_, line, _ := strings.Cut(report(t, records(200)), "no case \"c\"; add the line\n")
	if want := fmt.Sprintf("c\t200\t%016x\t", h.Sum64()); !strings.HasPrefix(line, want) || Lines(text).Sum() != h.Sum64() {
		t.Fatalf("a missing case prints %q, want a line that starts %q", line, want)
	}
	if out := report(t, records(200), line); out != "" {
		t.Errorf("an unchanged case reports %q", out)
	}
	altered := records(200)
	altered.lines[130] = "record 130, altered"
	short := records(199)
	for r, parts := range map[*Records][]string{
		altered: {"first divergent block 2, records 128-191, now reads:\n    128 record 128\n", "\n    130 record 130, altered\n"},
		short:   {"recorded 200 records", "now      199 records", "first divergent block 3, records 192-198"},
	} {
		out := report(t, r, line)
		for _, s := range append(parts, "replace its line in ") {
			if !strings.Contains(out, s) {
				t.Errorf("report has no %q:\n%s", s, out)
			}
		}
	}
	if out := report(t, records(200), line, line); !strings.Contains(out, `:3: case "c" is recorded twice`) {
		t.Errorf("a duplicated case reports %q", out)
	}
}

// TestCorpus counts the corpus's cases by their first path element. A
// renamed case fails Check as missing, and pasting its new line breaks the
// count until the old line goes. A case dropped outright leaves its line
// uncompared, which Main reports.
func TestCorpus(t *testing.T) {
	data, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if prefix, _, _ := strings.Cut(line, "/"); !strings.HasPrefix(line, "#") {
			counts[prefix]++
		}
	}
	if want := map[string]int{"cluster": 17, "trace": 11, "plan": 14, "load": 8}; !maps.Equal(counts, want) {
		t.Errorf("golden/digests.txt holds %v cases by prefix, want %v", counts, want)
	}
}

// TestUncompared: a corpus case under a listed prefix that Report never
// compared is named with its line; a compared case and a case under
// another prefix are not.
func TestUncompared(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.txt")
	if err := os.WriteFile(path, []byte("# header\nkept/a\t1\nkept/b\t1\nother/c\t1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func(real string) { corpus = real }(corpus)
	corpus = path
	Report("kept/a", records(1))
	if got, want := uncompared([]string{"kept/"}), []string{path + `:3: case "kept/b"`}; !slices.Equal(got, want) {
		t.Errorf("uncompared = %q, want %q", got, want)
	}
}

func TestDiff(t *testing.T) {
	want := "# fig 4\nx\ta\tb\n1\t2\t3\n"
	for got, diff := range map[string]string{
		want:                          "",
		"# fig 4\nx\ta\tb\n1\t2\t4\n": "line 3, field 3 differs\n got: 1\t2\t4\nwant: 1\t2\t3",
		"# fig 4\nx\ta\tb\n":          "line 3, field 1 differs\n got: \nwant: 1\t2\t3",
	} {
		if d := Diff(got, want); d != diff {
			t.Errorf("Diff(%q) = %q, want %q", got, d, diff)
		}
	}
}
