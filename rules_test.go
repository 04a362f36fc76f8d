package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestArchitectureRules holds the module to the design rules that keep its
// runs deterministic and allocation-stable. Each rule refuses syntax, not
// text, so a comment or a string never trips it; a refusal prints the
// file, the line, the rule and the docs/ARCHITECTURE.md section that owns
// its reason. The module is walked as the go tool walks it (testdata and
// directories starting with "." or "_" are skipped), cmd/bench and
// examples included. Every rule carries planted snippets it must refuse
// and ones it must pass, and a scope that matches no file fails the rule
// instead of switching it off.
func TestArchitectureRules(t *testing.T) {
	doc, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	src := apiSource{}
	var files []archFile
	for _, dir := range packageDirs(t, ".") {
		pkg := src.load(t, dir)
		for _, f := range pkg.files {
			files = append(files, archFile{filepath.ToSlash(pkg.fset.File(f.Pos()).Name()), pkg.fset, f})
		}
	}
	for _, r := range architectureRules {
		if !strings.Contains(string(doc), "\n## "+r.section+"\n") {
			t.Errorf("rule %q: docs/ARCHITECTURE.md has no section %q", r.name, r.section)
		}
		if pat := r.emptyScope(files); pat != "" {
			t.Errorf("rule %q: %s matches no file: the rule checks nothing", r.name, pat)
		}
		for _, f := range files {
			for _, refusal := range r.refusals(f) {
				t.Errorf("%s: %s (docs/ARCHITECTURE.md, %q: %s)", refusal, r.name, r.section, r.reason)
			}
		}
		var refuses, passes bool
		for _, p := range r.plants {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, p.path, "package p\n\n"+p.src, 0)
			if err != nil {
				t.Fatalf("rule %q: planted %s: %v", r.name, p.path, err)
			}
			if got := r.refusals(archFile{p.path, fset, f}); (len(got) > 0) != p.refused {
				t.Errorf("rule %q: planted %s %q: refused %q, want refused = %v", r.name, p.path, p.src, got, p.refused)
			}
			refuses, passes = refuses || p.refused, passes || !p.refused
		}
		if !refuses || !passes {
			t.Errorf("rule %q: wants a planted snippet it refuses and one it passes", r.name)
		}
	}

	// A renamed package turned a grep over $(ls dir/*.go) into a grep of
	// stdin that found nothing; here it fails its rule.
	for _, ghost := range []archCheck{
		{dirs: []string{"internal/nosuchpkg"}},
		{dirs: []string{"./..."}, exempt: []string{"internal/experiment/nosuch.go"}},
	} {
		if (&archRule{checks: []archCheck{ghost}}).emptyScope(files) == "" {
			t.Errorf("a check of %v except %v took its scope for one that matches files", ghost.dirs, ghost.exempt)
		}
	}
}

// packageDirs lists root and the directories below it as the go tool walks
// them: testdata and directories starting with "." or "_" are skipped.
func packageDirs(t *testing.T, root string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(root, func(name string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); name != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestKnobsHaveWriters holds the facade to the rule of docs/ARCHITECTURE.md,
// "Options": every line of golden/api.txt of four kinds has a user in a
// non-test file under cmd/ or examples/ — a command, an example or a
// benchmark workload:
//   - a field of Sweep, Wire or GeoConfig is set by name in a composite
//     literal (repro.Sweep{Field: …});
//   - a func, and an observer interface (a type named …Observer), is named
//     by a selector repro.Name;
//   - an event kind (a type planKinds or loadKinds decodes, the one list of
//     them) is named by a selector repro.K, or a call names a facade method
//     whose body builds a K{…} literal (c.SuspectAt builds a SuspicionBurst,
//     plan.Pause(…) a Pause).
//
// Users are found by syntax, not text, so a name inside a string or a
// comment is none. A line without a user is a name nothing uses: delete
// it, or write it down here with its reason.
func TestKnobsHaveWriters(t *testing.T) {
	const overloadGolden = "overloadPlan() drives golden/digests.txt's load/overload/* lines; a fuzz target of ROADMAP 4"
	const observers = "an optional observer interface, kept until ROADMAP 5 decides what Metrics implements"
	exempt := map[string]string{
		"field Wire.Loss":        "lossy wires stay for the lossy-network study (ROADMAP 23)",
		"type LinkFault":         "the loss fence of ROADMAP 27 and the lossy channels of ROADMAP 23, like Wire.Loss",
		"type RateChange":        overloadGolden,
		"type Resume":            overloadGolden,
		"type BroadcastObserver": observers,
		"type LoadObserver":      observers,
		"type NetObserver":       observers,
		"type PlanObserver":      observers,
	}
	golden, err := os.ReadFile("golden/api.txt")
	if err != nil {
		t.Fatal(err)
	}
	api := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	src := apiSource{}
	kinds := eventKinds(t, src)
	builds := kindBuilders(t, src, api, kinds)
	used := make(map[string]bool)
	for _, root := range []string{"cmd", "examples"} {
		for _, dir := range packageDirs(t, root) {
			pkg := src.load(t, dir)
			for _, f := range pkg.files {
				if strings.HasSuffix(pkg.fset.File(f.Pos()).Name(), "_test.go") {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						if selects(n.Type, "repro", "Sweep", "Wire", "GeoConfig") {
							for _, elt := range n.Elts {
								if kv, ok := elt.(*ast.KeyValueExpr); ok {
									used["field "+nameOf(n.Type)+"."+nameOf(kv.Key)] = true
								}
							}
						}
					case *ast.SelectorExpr:
						if nameOf(n.X) == "repro" {
							used["func "+n.Sel.Name] = true
							used["type "+n.Sel.Name] = true
						}
					case *ast.CallExpr:
						if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
							for _, k := range builds[sel.Sel.Name] {
								used["type "+k] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	checked := regexp.MustCompile(`^(field (Sweep|Wire|GeoConfig)\.\w+|func \w+|type \w*Observer)$`)
	for _, line := range api {
		name, isType := strings.CutPrefix(line, "type ")
		if !checked.MatchString(line) && !(isType && kinds[name]) {
			continue
		}
		switch reason, ok := exempt[line]; {
		case ok && used[line]:
			t.Errorf("%s is exempt (%s), but a command now uses it: drop the exemption", line, reason)
		case !ok && !used[line]:
			t.Errorf("%s: no command, example or benchmark workload uses it (docs/ARCHITECTURE.md, \"Options\")", line)
		}
		delete(exempt, line)
	}
	for line := range exempt {
		t.Errorf("%s is exempt, but golden/api.txt lists no such line the test checks", line)
	}
}

// eventKinds returns the event types that internal/experiment/trace.go's
// planKinds and loadKinds decode: the type arguments of their decodeAs
// entries.
func eventKinds(t *testing.T, src apiSource) map[string]bool {
	t.Helper()
	kinds := make(map[string]bool)
	pkg := src.load(t, "internal/experiment")
	for _, f := range pkg.files {
		if filepath.Base(pkg.fset.File(f.Pos()).Name()) != "trace.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok || len(spec.Names) != 1 || (spec.Names[0].Name != "planKinds" && spec.Names[0].Name != "loadKinds") {
				return true
			}
			ast.Inspect(spec, func(m ast.Node) bool {
				if x, ok := m.(*ast.IndexListExpr); ok && nameOf(x.X) == "decodeAs" {
					kinds[nameOf(x.Indices[0])] = true
				}
				return true
			})
			return false
		})
	}
	if len(kinds) == 0 {
		t.Fatal("internal/experiment/trace.go: planKinds and loadKinds decode no event kind: the check checks nothing")
	}
	return kinds
}

// kindBuilders maps the name of each facade method (a "method T.M" line of
// api) to the event kinds its body builds as composite literals. The
// method is looked up where T's alias chain ends, in src's unedited
// syntax: a source that built documentation has lost its bodies.
func kindBuilders(t *testing.T, src apiSource, api []string, kinds map[string]bool) map[string][]string {
	t.Helper()
	builds := make(map[string][]string)
	for _, line := range api {
		rest, ok := strings.CutPrefix(line, "method ")
		if !ok {
			continue
		}
		typ, method, _ := strings.Cut(rest, ".")
		dir, name := src.resolve(t, ".", typ)
		if name == "" {
			continue
		}
		pkg := src.load(t, dir)
		for _, f := range pkg.files {
			if strings.HasSuffix(pkg.fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Body == nil || fn.Name.Name != method || receiverName(fn) != name {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.CompositeLit); ok && kinds[nameOf(lit.Type)] {
						builds[method] = append(builds[method], nameOf(lit.Type))
					}
					return true
				})
			}
		}
	}
	return builds
}

// receiverName is the name of the type fn is a method of.
func receiverName(fn *ast.FuncDecl) string {
	x := fn.Recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	return nameOf(x)
}

// archRule is one design rule: what it refuses and where, why, and the
// docs/ARCHITECTURE.md section that owns the reason.
type archRule struct {
	name    string
	section string // a "## " heading of docs/ARCHITECTURE.md
	reason  string // one line; the section says the rest
	checks  []archCheck
	plants  []archPlant
}

// archCheck refuses syntax in one scope. A scope pattern is a file, a
// directory's own files, or with "/..." the tree below a directory
// ("./..." is the module).
type archCheck struct {
	dirs   []string
	files  fileKind
	exempt []string
	refuse func(ast.Node) string // what n is, "" when it passes
}

// archPlant is a snippet of declarations that its rule must refuse, or
// pass, as the file at path.
type archPlant struct {
	path    string
	src     string
	refused bool
}

type archFile struct {
	path string // slash-separated, relative to the module root
	fset *token.FileSet
	f    *ast.File
}

type fileKind int

const (
	codeFiles fileKind = iota // non-test files
	testFiles
	allFiles
)

func (k fileKind) has(file string) bool {
	return k == allFiles || (k == testFiles) == strings.HasSuffix(file, "_test.go")
}

// within reports whether file is in the scope pattern pat.
func within(file, pat string) bool {
	if tree, ok := strings.CutSuffix(pat, "/..."); ok {
		return tree == "." || strings.HasPrefix(file, tree+"/")
	}
	return file == pat || path.Dir(file) == pat
}

func (c *archCheck) covers(file string) bool {
	in := func(pat string) bool { return within(file, pat) }
	return c.files.has(file) && slices.ContainsFunc(c.dirs, in) && !slices.ContainsFunc(c.exempt, in)
}

// emptyScope returns the first scope or exemption pattern of r that
// matches none of files, "" when every one matches some file.
func (r *archRule) emptyScope(files []archFile) string {
	for _, c := range r.checks {
		for _, pat := range append(slices.Clip(c.dirs), c.exempt...) {
			if !slices.ContainsFunc(files, func(af archFile) bool { return c.files.has(af.path) && within(af.path, pat) }) {
				return pat
			}
		}
	}
	return ""
}

// refusals returns "file:line: what" for each node of af that a check of
// r covering its file refuses.
func (r *archRule) refusals(af archFile) []string {
	var checks []*archCheck
	for i := range r.checks {
		if r.checks[i].covers(af.path) {
			checks = append(checks, &r.checks[i])
		}
	}
	if len(checks) == 0 {
		return nil
	}
	var found []string
	ast.Inspect(af.f, func(n ast.Node) bool {
		for _, c := range checks {
			if what := c.refuse(n); what != "" {
				found = append(found, af.fset.Position(n.Pos()).String()+": "+what)
			}
		}
		return true
	})
	return found
}

// nameOf is the name x refers to: an identifier, or the selected name of a
// selector (proto.MsgID, nw.rt); "" for any other expression.
func nameOf(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// selects reports whether n is a selector of one of sels from an operand
// named from, any operand when from is "".
func selects(n ast.Node, from string, sels ...string) bool {
	s, ok := n.(*ast.SelectorExpr)
	return ok && (from == "" || nameOf(s.X) == from) && slices.Contains(sels, s.Sel.Name)
}

// mapKeyedBy refuses a map type whose key is named key; any map when key
// is "".
func mapKeyedBy(key string) func(ast.Node) string {
	return func(n ast.Node) string {
		if m, ok := n.(*ast.MapType); ok && (key == "" || nameOf(m.Key) == key) {
			return "map[" + types.ExprString(m.Key) + "]"
		}
		return ""
	}
}

// mapKeyedByNamedOtherThan refuses a map type keyed by key that a
// declaration, a field or parameter, an assignment or a keyed literal
// element binds to a name other than keep: keep is the one such map of
// the scope. A function literal's body and a composite literal's
// elements are left to their own statements and keys.
func mapKeyedByNamedOtherThan(key, keep string) func(ast.Node) string {
	isMap := mapKeyedBy(key)
	return func(n ast.Node) string {
		var names, exprs []ast.Expr
		switch n := n.(type) {
		case *ast.Field:
			for _, id := range n.Names {
				names = append(names, id)
			}
			exprs = []ast.Expr{n.Type}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				names = append(names, id)
			}
			exprs = append([]ast.Expr{n.Type}, n.Values...)
		case *ast.AssignStmt:
			names, exprs = n.Lhs, n.Rhs
		case *ast.KeyValueExpr:
			names, exprs = []ast.Expr{n.Key}, []ast.Expr{n.Value}
		default:
			return ""
		}
		what := ""
		for _, x := range exprs {
			if x == nil {
				continue
			}
			ast.Inspect(x, func(m ast.Node) bool {
				switch m.(type) {
				case *ast.FuncLit, *ast.CompositeLit:
					return false
				}
				if what != "" {
					return false
				}
				what = isMap(m)
				return what == ""
			})
		}
		if what == "" {
			return ""
		}
		if len(names) == 0 {
			return "an unnamed " + what
		}
		for _, name := range names {
			if nameOf(name) != keep {
				return what + " named " + nameOf(name)
			}
		}
		return ""
	}
}

// identContaining refuses an identifier whose name contains one of parts.
func identContaining(parts ...string) func(ast.Node) string {
	return func(n ast.Node) string {
		if id, ok := n.(*ast.Ident); ok && slices.ContainsFunc(parts, func(p string) bool { return strings.Contains(id.Name, p) }) {
			return "identifier " + id.Name
		}
		return ""
	}
}

// literalOf reports whether n is a composite literal of a type matching re.
func literalOf(n ast.Node, re *regexp.Regexp) bool {
	lit, ok := n.(*ast.CompositeLit)
	return ok && re.MatchString(nameOf(lit.Type))
}

var (
	gmMessage    = regexp.MustCompile(`^Msg(ViewChange|Flush|Consensus|JoinReq|Welcome)$`)
	groupMessage = regexp.MustCompile(`^(gmsg|tsProp|tsReq|tsFinal|advance)$`)
	digest64     = regexp.MustCompile(`^0[xX][0-9a-fA-F]{16,}$`)
)

// architectureRules are the rules TestArchitectureRules checks.
var architectureRules = []archRule{
	{
		name:    "dense tables",
		section: "Dense tables",
		reason:  "a map iterates in random order and allocates its buckets: state keyed by MsgID lives in proto.IDTable, by round, turn or sequence number in proto.Window, by process in a slice",
		checks: []archCheck{
			{dirs: []string{"internal/proto", "internal/rbcast", "internal/ctabcast", "internal/groups", "internal/experiment"}, refuse: mapKeyedBy("MsgID")},
			{dirs: []string{"internal/seqabcast"}, refuse: mapKeyedBy("uint64")},
			{dirs: []string{"internal/seqabcast"}, refuse: mapKeyedByNamedOtherThan("MsgID", "received")},
			{dirs: []string{"internal/consensus"}, refuse: mapKeyedBy("")},
		},
		plants: []archPlant{
			{"internal/experiment/scenario.go", "var sent map[proto.MsgID]sim.Time", true},
			{"internal/groups/router.go", "func f() { _ = make(map[MsgID]bool) }", true},
			{"internal/seqabcast/seqabcast.go", "var assigned map[uint64]proto.MsgID", true},
			{"internal/consensus/consensus.go", "var rounds map[int]*round", true},
			{"internal/seqabcast/seqabcast.go", "var seqOf map[proto.MsgID]uint64", true},
			{"internal/seqabcast/seqabcast.go", "func f() { seen := make(map[proto.MsgID]bool) }", true},
			{"internal/seqabcast/seqabcast.go", "var received map[proto.MsgID]bool // sparse across origins", false},
			{"internal/seqabcast/seqabcast.go", "func f() *Process { return &Process{received: make(map[proto.MsgID]any)} }", false},
			{"internal/consensus/consensus.go", "// a map[int]*round would iterate in random order", false},
			{"internal/experiment/scenario_test.go", "var sent map[proto.MsgID]sim.Time", false},
		},
	},
	{
		name:    "one pooled wire box",
		section: "Pooling and the payload lifecycle",
		reason:  "a wire message is recycled by embedding netmodel.Box and drawing from a netmodel.Pool: a count of its own copies is a second recycling mechanism",
		checks: []archCheck{{
			dirs: []string{"internal/rbcast", "internal/ctabcast", "internal/seqabcast", "internal/gm", "internal/groups"},
			refuse: func(n ast.Node) string {
				var names []*ast.Ident
				var typ ast.Expr
				switch n := n.(type) {
				case *ast.Field:
					names, typ = n.Names, n.Type
				case *ast.ValueSpec:
					names, typ = n.Names, n.Type
				}
				if t := nameOf(typ); (t == "int32" || t == "Int32") && slices.ContainsFunc(names, func(id *ast.Ident) bool { return id.Name == "refs" }) {
					return "a refs " + t + " copy count"
				}
				return ""
			},
		}},
		plants: []archPlant{
			{"internal/rbcast/rbcast.go", "type msg struct {\n\tbody any\n\trefs int32\n}", true},
			{"internal/gm/messages.go", "type box struct{ refs, gen int32 }", true},
			{"internal/groups/router.go", "type gram struct{ refs atomic.Int32 }", true},
			{"internal/rbcast/rbcast.go", "type msg struct {\n\tnetmodel.Box // refs int32 lives here\n}", false},
			{"internal/netmodel/pool.go", "type Box struct{ refs int32 }", false},
		},
	},
	{
		name:    "one multicast path",
		section: "Replication reuse",
		reason:  "Multicast is MulticastSet to netmodel.Everyone, whose tables are the topology's own full trees: a read of the routing's full trees beside the set tables, or a set sentinel with its branches, is a second path",
		checks: []archCheck{{
			dirs: []string{"internal/netmodel"},
			refuse: func(n ast.Node) string {
				if selects(n, "rt", "Tree", "Sub", "Reach") {
					return "rt." + n.(*ast.SelectorExpr).Sel.Name
				}
				b, ok := n.(*ast.BinaryExpr)
				if !ok {
					return ""
				}
				lit := func(x ast.Expr, v string) bool { l, ok := x.(*ast.BasicLit); return ok && l.Value == v }
				set := func(x ast.Expr) bool { return nameOf(x) == "set" }
				if b.Op == token.GEQ && set(b.X) && lit(b.Y, "0") || b.Op == token.LEQ && lit(b.X, "0") && set(b.Y) ||
					b.Op == token.ADD && (set(b.X) && lit(b.Y, "1") || lit(b.X, "1") && set(b.Y)) {
					return "a set sentinel test or offset"
				}
				return ""
			},
		}},
		plants: []archPlant{
			{"internal/netmodel/netmodel.go", "func f() { _ = nw.rt.Tree[0][0] }", true},
			{"internal/netmodel/netmodel.go", "func f() { _ = nw.rt.Sub[0][0] }", true},
			{"internal/netmodel/netmodel.go", "func f() { _ = nw.rt.Reach[0] }", true},
			{"internal/netmodel/netmodel.go", "func f() {\n\tif set >= 0 {\n\t}\n}", true},
			{"internal/netmodel/netmodel.go", "func f() { x := set+1 }", true},
			{"internal/netmodel/netmodel.go", "func f() { _ = nw.sets[p.set+1] }", true},
			{"internal/netmodel/netmodel.go", "func f() { x := offset+1; _ = sr.Tree[0] } // rt.Tree, set >= 0", false},
			{"internal/netmodel/set_test.go", "func f() { _ = nw.rt.Tree[0][0] }", false},
		},
	},
	{
		name:    "pooled membership messages",
		section: "Pooling and the payload lifecycle",
		reason:  "a gm message sent as a value literal has a zero Box: it is allocated at every send and never recycled",
		checks: []archCheck{{
			dirs: []string{"internal/gm"},
			refuse: func(n ast.Node) string {
				call, ok := n.(*ast.CallExpr)
				if !ok || !selects(call.Fun, "", "Send", "Multicast", "MulticastSet") {
					return ""
				}
				for _, arg := range call.Args {
					var lit bool
					ast.Inspect(arg, func(m ast.Node) bool { lit = lit || literalOf(m, gmMessage); return !lit })
					if lit {
						return "a gm message literal handed to " + nameOf(call.Fun)
					}
				}
				return ""
			},
		}},
		plants: []archPlant{
			{"internal/gm/gm.go", "func f() { p.rt.Multicast(&MsgFlush{View: v}) }", true},
			{"internal/gm/gm.go", "func f() {\n\tp.rt.Send(q,\n\t\tMsgWelcome{View: v})\n}", true},
			{"internal/gm/gm.go", "func f() { m := p.flushes.Get(); p.rt.Multicast(m) } // Multicast(&MsgFlush{})", false},
		},
	},
	{
		name:    "carved and pooled group messages",
		section: "Pooling and the payload lifecycle",
		reason:  "the group router carves what its receivers keep from slabs, sends what its handlers use up in pooled boxes, and binds a fallback alarm once to a method value",
		checks: []archCheck{{
			dirs: []string{"internal/groups"},
			refuse: func(n ast.Node) string {
				if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND && literalOf(u.X, groupMessage) {
					return "&" + nameOf(u.X.(*ast.CompositeLit).Type) + "{…}"
				}
				if call, ok := n.(*ast.CallExpr); ok && nameOf(call.Fun) == "NewAlarm" && slices.ContainsFunc(call.Args, func(x ast.Expr) bool { _, ok := x.(*ast.FuncLit); return ok }) {
					return "NewAlarm(func …)"
				}
				return ""
			},
		}},
		plants: []archPlant{
			{"internal/groups/router.go", "func f() { r.send(&tsProp{ts: t}) }", true},
			{"internal/groups/router.go", "func f() { g := &gmsg{\n\tid: id,\n} }", true},
			{"internal/groups/router.go", "func f() { f.alarm = r.proc.NewAlarm(func() { r.fire(f) }) }", true},
			{"internal/groups/router.go", "func f() { f.alarm = r.proc.NewAlarm(f.fire) } // not &gmsg{} nor NewAlarm(func", false},
			{"internal/groups/router_test.go", "func f() { _ = &advance{} }", false},
		},
	},
	{
		name:    "no reflect sort",
		section: "Pooling and the payload lifecycle",
		reason:  "sort.Slice allocates a reflect swapper at every call, a per-message allocation on an ack or delivery path; slices.Sort and SortFunc do not",
		checks: []archCheck{{
			dirs: []string{"internal/..."},
			refuse: func(n ast.Node) string {
				if selects(n, "sort", "Slice", "SliceStable") {
					return "sort." + n.(*ast.SelectorExpr).Sel.Name
				}
				return ""
			},
		}},
		plants: []archPlant{
			{"internal/stats/stats.go", "func f() { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }", true},
			{"internal/experiment/runner.go", "func f() { sort.SliceStable(xs, less) }", true},
			{"internal/stats/stats.go", "func f() { slices.Sort(xs) } // never sort.Slice(", false},
			{"cmd/figures/main.go", "func f() { sort.Slice(xs, less) }", false},
		},
	},
	{
		name:    "alarm-only protocol timers",
		section: "Pooling and the payload lifecycle",
		reason:  "a protocol timer is a proto.Alarm its owner keeps and re-arms, a workload source re-arms its own event record, and the QoS detector model's timers are typed engine records: an engine handle allocates at every arming",
		checks: []archCheck{{dirs: []string{"internal/workload", "internal/hbfd", "internal/gm", "internal/ctabcast", "internal/groups",
			"internal/seqabcast", "internal/rbcast", "internal/consensus", "internal/proto", "internal/fd"}, refuse: func(n ast.Node) string {
			if call, ok := n.(*ast.CallExpr); ok && selects(call.Fun, "", "After") {
				return "an engine handle from .After"
			}
			return ""
		}}},
		plants: []archPlant{
			{"internal/workload/poisson.go", "func f() { s.eng.After(d, s.arrive) }", true},
			{"internal/hbfd/hbfd.go", "func f() { w.rt.Engine().After(w.cfg.Interval, func() {}) }", true},
			{"internal/hbfd/hbfd.go", "func f() { w.beat.Arm(w.cfg.Interval) } // not eng.After(", false},
			{"internal/fd/fd.go", "func f() { s.eng.After(d, detect) }", true},
		},
	},
	{
		name:    "recycled view-change instances",
		section: "Pooling and the payload lifecycle",
		reason:  "a view change runs its consensus in a recycled change record (consensus.Instance.Reset): a fresh instance per change is most of what a warm view change allocated",
		checks: []archCheck{{dirs: []string{"internal/gm"}, refuse: func(n ast.Node) string {
			if selects(n, "consensus", "New") {
				return "consensus.New"
			}
			return ""
		}}},
		plants: []archPlant{
			{"internal/gm/viewchange.go", "func f() { c.inst = consensus.New(cfg) }", true},
			{"internal/gm/viewchange.go", "func f() { c.inst.Reset(cfg) } // instead of consensus.New(", false},
			{"internal/gm/gm_test.go", "func f() { _ = consensus.New(cfg) }", false},
		},
	},
	{
		name:    "one specification checker",
		section: "Specification",
		reason:  "the atomic broadcast specification is stated once, in proto.History: a test helper that re-derives order, delivery or agreement is a second statement, free to drift",
		checks: []archCheck{{dirs: []string{"./..."}, files: testFiles, exempt: []string{"internal/proto/..."}, refuse: func(n ast.Node) string {
			if fn, ok := n.(*ast.FuncDecl); ok && slices.Contains([]string{"checkTotalOrder", "checkAllDelivered", "checkUniformAgreement", "checkAgreement"}, fn.Name.Name) {
				return "a hand-written " + fn.Name.Name
			}
			return ""
		}}},
		plants: []archPlant{
			{"internal/ctabcast/ctabcast_test.go", "func (h *harness) checkTotalOrder(t *testing.T) {}", true},
			{"internal/groups/groups_test.go", "func checkUniformAgreement(t *testing.T, logs [][]proto.MsgID) {}", true},
			{"internal/ctabcast/ctabcast_test.go", "func (h *harness) check(t *testing.T) { h.hist.Check(proto.TotalOrder) } // checkTotalOrder(", false},
			{"internal/proto/history_test.go", "func (h *hist) checkAgreement(t *testing.T) {}", false},
			{"internal/ctabcast/ctabcast.go", "func (p *Process) checkTotalOrder() {}", false},
		},
	},
	{
		name:    "one golden corpus",
		section: "The determinism contract",
		reason:  "every golden digest is a line of golden/digests.txt compared through internal/golden: a 64-bit literal in a test is a second table, silent about which record moved",
		checks: []archCheck{{dirs: []string{"./..."}, files: testFiles, refuse: func(n ast.Node) string {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.INT && digest64.MatchString(strings.ReplaceAll(lit.Value, "_", "")) {
				return "a 64-bit digest literal " + lit.Value
			}
			return ""
		}}},
		plants: []archPlant{
			{"golden_test.go", "const want = 0xcbf29ce484222325", true},
			{"internal/experiment/trace_test.go", "var want = []uint64{0X84222325CBF29CE4}", true},
			{"internal/experiment/trace_test.go", "var want = []uint64{0xcbf2_9ce4_8422_2325}", true},
			{"golden_test.go", "const name = \"0xcbf29ce484222325\" // 0xcbf29ce484222325", false},
			{"golden_test.go", "const mask = 0xffffffff", false},
			{"internal/golden/golden.go", "const offset64 = 0xcbf29ce484222325", false},
		},
	},
	{
		name:    "one recovery log",
		section: "Specification",
		reason:  "both stacks keep their recovery log in proto.Log, which owns the positions, the retention and the trim: a log start tracked or a log trimmed by hand is a second log",
		checks:  []archCheck{{dirs: []string{"internal/ctabcast", "internal/seqabcast"}, refuse: identContaining("logStart", "logBodies", "trimLog")}},
		plants: []archPlant{
			{"internal/ctabcast/ctabcast.go", "type Process struct{ logStart uint64 }", true},
			{"internal/seqabcast/seqabcast.go", "func f() { p.trimLog(upTo) }", true},
			{"internal/ctabcast/ctabcast.go", "func f() { p.log.Trim(upTo) } // no trimLog or logStart", false},
			{"internal/proto/log.go", "func (l *Log) trimLog() {}", false},
		},
	},
	{
		name:    "one broadcast entry",
		section: "Specification",
		reason:  "every broadcast and multicast enters through experiment.Core's Broadcast or Multicast, which count it and feed the History: a send counted anywhere else bypasses that feed (cmd/bench's drive is the one bypass left, ROADMAP 16)",
		checks: []archCheck{{dirs: []string{"./..."}, files: allFiles, exempt: []string{"internal/experiment/builder.go", "cmd/bench/..."}, refuse: func(n ast.Node) string {
			var x ast.Expr
			switch s := n.(type) {
			case *ast.IncDecStmt:
				if s.Tok == token.INC {
					x = s.X
				}
			case *ast.AssignStmt:
				if s.Tok == token.ADD_ASSIGN {
					x = s.Lhs[0]
				}
			}
			if ix, ok := x.(*ast.IndexExpr); ok && nameOf(ix.X) == "SentBy" {
				return "a send counted in SentBy"
			}
			return ""
		}}},
		plants: []archPlant{
			{"internal/experiment/scenario.go", "func f() { c.SentBy[p]++ }", true},
			{"cluster.go", "func f() { c.core.SentBy[ids[i]] += 1 }", true},
			{"rejoin_test.go", "func f() { SentBy[0]++ }", true},
			{"internal/experiment/builder.go", "func f() { c.SentBy[sender]++ }", false},
			{"cmd/bench/drives.go", "func f() { core.SentBy[p]++ }", false},
			{"cluster.go", "func f() { n := c.core.SentBy[p] } // SentBy[p]++", false},
		},
	},
	{
		name:    "one group-layer assembly",
		section: "Replication reuse",
		reason:  "experiment.Core builds the group coordinator, its routers and every endpoint (Core.endpoint) and resets them in place: a second assembly path is free to drift from the reset one",
		checks: []archCheck{
			{dirs: []string{"./..."}, exempt: []string{"internal/groups/...", "internal/experiment/builder.go"}, refuse: func(n ast.Node) string {
				if call, ok := n.(*ast.CallExpr); ok && (nameOf(call.Fun) == "NewCoordinator" || selects(call.Fun, "", "NewRouter")) {
					return "a group layer assembled by " + nameOf(call.Fun)
				}
				return ""
			}},
			{dirs: []string{"./..."}, files: allFiles, exempt: []string{"internal/hbfd/...", "internal/experiment/builder.go"}, refuse: func(n ast.Node) string {
				if selects(n, "hbfd", "Wrap") {
					return "an endpoint wrapped by hbfd.Wrap"
				}
				return ""
			}},
			{dirs: []string{"./..."}, files: allFiles, refuse: identContaining("InstanceFactory")},
		},
		plants: []archPlant{
			{"internal/experiment/scenario.go", "func f() { c.coord = groups.NewCoordinator(cfg) }", true},
			{"cluster.go", "func f() { r := coord.NewRouter(p) }", true},
			{"internal/experiment/core.go", "func f() { h := hbfd.Wrap(rt, inner, cfg) }", true},
			{"internal/experiment/reset_test.go", "func f() { h := hbfd.Wrap(rt, inner, cfg) }", true},
			{"internal/groups/groups.go", "type InstanceFactory func(InstanceConfig) proto.Handler", true},
			{"internal/experiment/builder.go", "func f() { c.coord = groups.NewCoordinator(cfg); h := hbfd.Wrap(rt, inner, cfg) }", false},
			{"internal/groups/coordinator.go", "func f() { r := c.NewRouter(p) }", false},
			{"internal/hbfd/hbfd_test.go", "func f() { w := hbfd.Wrap(rt, inner, cfg) }", false},
			{"internal/experiment/reset_test.go", "func f() { c := groups.NewCoordinator(cfg) }", false},
			{"internal/groups/groups.go", "// one instance func, no InstanceFactory", false},
		},
	},
}
