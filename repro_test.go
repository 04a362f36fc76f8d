package repro

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestFacadeAPI pins the facade's surface: golden/api.txt holds one sorted
// line per exported identifier this package declares — constants,
// functions, types, their methods and struct fields — so what a PR adds to
// or removes from `go doc repro` is the diff of a tracked file. A type
// that aliases one of the module's own types is followed down its alias
// chain, and the methods and fields of the type it ends at are listed
// under the facade's name: they are the facade's surface too.
func TestFacadeAPI(t *testing.T) {
	api := apiSource{}
	pkg := api.doc(t, ".")
	var lines []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				lines = append(lines, kind+" "+name)
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			lines = append(lines, "func "+f.Name)
		}
	}
	// members lists typ's methods and struct fields under name.
	members := func(name string, typ *doc.Type) {
		for _, m := range typ.Methods {
			lines = append(lines, "method "+name+"."+m.Name)
		}
		if st, ok := typ.Decl.Specs[0].(*ast.TypeSpec).Type.(*ast.StructType); ok {
			for _, field := range st.Fields.List {
				for _, fname := range field.Names {
					lines = append(lines, "field "+name+"."+fname.Name)
				}
			}
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		lines = append(lines, "type "+typ.Name)
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		members(typ.Name, typ)
		if target := api.target(t, ".", typ.Name); target != nil {
			members(typ.Name, target)
		}
	}
	sort.Strings(lines)
	golden, err := os.ReadFile("golden/api.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(lines, "\n") + "\n"; got == string(golden) {
		return
	}
	recorded := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n") {
		recorded[line] = true
	}
	for _, line := range lines {
		if !recorded[line] {
			t.Errorf("not in golden/api.txt: %s", line)
		}
		delete(recorded, line)
	}
	for line := range recorded {
		t.Errorf("only in golden/api.txt: %s", line)
	}
	if !t.Failed() {
		t.Error("golden/api.txt holds the right lines in the wrong order or form (sorted, one per line, trailing newline)")
	}
}

// apiSource parses the module's packages, each once: the facade's for
// TestFacadeAPI, every directory for TestArchitectureRules.
type apiSource map[string]*apiPackage // by directory

// apiPackage is one directory's files, test files included, with the type
// declarations of its non-test files, each with the file that declares it.
type apiPackage struct {
	fset  *token.FileSet
	files []*ast.File
	types map[string]apiTypeSpec
	doc   *doc.Package // built by apiSource.doc
}

type apiTypeSpec struct {
	spec *ast.TypeSpec
	file *ast.File
}

// load parses the package in dir, relative to the module root.
func (a apiSource) load(t *testing.T, dir string) *apiPackage {
	t.Helper()
	if pkg := a[dir]; pkg != nil {
		return pkg
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkg := &apiPackage{fset: token.NewFileSet(), types: make(map[string]apiTypeSpec)}
	for _, name := range names {
		f, err := parser.ParseFile(pkg.fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pkg.files = append(pkg.files, f)
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.TYPE {
				for _, spec := range gen.Specs {
					ts := spec.(*ast.TypeSpec)
					pkg.types[ts.Name.Name] = apiTypeSpec{ts, f}
				}
			}
		}
	}
	a[dir] = pkg
	return pkg
}

// doc returns the documentation of the non-test files of the package in
// dir. doc.NewFromFiles trims the unexported parts of those files, which is
// why load collects the declarations first, and why a source whose files
// TestArchitectureRules walks never builds it.
func (a apiSource) doc(t *testing.T, dir string) *doc.Package {
	t.Helper()
	pkg := a.load(t, dir)
	if pkg.doc == nil {
		var files []*ast.File
		for _, f := range pkg.files {
			if !strings.HasSuffix(pkg.fset.File(f.Pos()).Name(), "_test.go") {
				files = append(files, f)
			}
		}
		var err error
		if pkg.doc, err = doc.NewFromFiles(pkg.fset, files, filepath.ToSlash(filepath.Join("repro", dir))); err != nil {
			t.Fatal(err)
		}
	}
	return pkg.doc
}

// target follows type name of the package in dir down its alias chain,
// through the module's own packages, and returns the documentation of the
// type it ends at; nil when name is no alias or the chain leaves the
// module.
func (a apiSource) target(t *testing.T, dir, name string) *doc.Type {
	t.Helper()
	for hops := 0; ; hops++ {
		ts, ok := a.load(t, dir).types[name]
		if !ok {
			return nil
		}
		if !ts.spec.Assign.IsValid() {
			if hops == 0 {
				return nil
			}
			for _, typ := range a.doc(t, dir).Types {
				if typ.Name == name {
					return typ
				}
			}
			return nil
		}
		switch x := ts.spec.Type.(type) {
		case *ast.Ident:
			name = x.Name
		case *ast.SelectorExpr:
			qual, ok := x.X.(*ast.Ident)
			if !ok {
				return nil
			}
			path := importPath(ts.file, qual.Name)
			if !strings.HasPrefix(path, "repro/") {
				return nil
			}
			dir, name = strings.TrimPrefix(path, "repro/"), x.Sel.Name
		default:
			return nil
		}
	}
}

// importPath returns the path f imports under the package name qual, ""
// when there is none. A package's name is the last element of its path
// throughout the module.
func importPath(f *ast.File, qual string) string {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == qual {
			return path
		}
	}
	return ""
}

func TestQuickSteadyRun(t *testing.T) {
	res := RunSteady(Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   50,
		Warmup:       200 * time.Millisecond,
		Measure:      2 * time.Second,
		Drain:        5 * time.Second,
		Replications: 2,
	})
	if !res.Stable || res.Messages == 0 {
		t.Fatalf("facade steady run failed: %+v", res)
	}
	if res.Latency.Mean < 7 {
		t.Fatalf("latency %v below physical floor", res.Latency.Mean)
	}
}

func TestClusterBroadcastAndDeliver(t *testing.T) {
	var deliveries []Delivery
	c := NewCluster(ClusterConfig{
		Algorithm: FD,
		N:         3,
		OnDeliver: func(d Delivery) { deliveries = append(deliveries, d) },
	})
	id := c.Broadcast(0, "hello")
	c.RunUntilIdle()
	if len(deliveries) != 3 {
		t.Fatalf("got %d deliveries, want one per process", len(deliveries))
	}
	for _, d := range deliveries {
		if d.ID != id || d.Body != "hello" {
			t.Fatalf("delivery = %+v", d)
		}
	}
	if deliveries[0].At != 7*time.Millisecond {
		t.Fatalf("first delivery at %v, want 7ms", deliveries[0].At)
	}
}

func TestClusterScheduledOperations(t *testing.T) {
	count := 0
	c := NewCluster(ClusterConfig{
		Algorithm: GM,
		N:         3,
		QoS:       Detectors(10, 0, 0),
		OnDeliver: func(d Delivery) {
			if d.Process == 1 {
				count++
			}
		},
	})
	c.BroadcastAt(1, 5*time.Millisecond, "a")
	c.CrashAt(0, 20*time.Millisecond)
	c.BroadcastAt(2, 30*time.Millisecond, "b")
	c.Run(2 * time.Second)
	if count != 2 {
		t.Fatalf("p1 delivered %d messages, want 2 (before and after crash)", count)
	}
	if !c.Crashed(0) || c.Crashed(1) {
		t.Fatal("crash bookkeeping wrong")
	}
}

func TestClusterViewObserver(t *testing.T) {
	var views []ViewInfo
	c := NewCluster(ClusterConfig{
		Algorithm: GM,
		N:         3,
		OnView: func(v ViewInfo) {
			if v.Process == 2 {
				views = append(views, v)
			}
		},
	})
	c.SuspectAt(0, 1, 10*time.Millisecond, 50*time.Millisecond)
	c.Run(time.Second)
	// p2 sees: initial view, the view excluding p1, and the rejoin view.
	if len(views) < 3 {
		t.Fatalf("p2 observed %d views, want >= 3: %+v", len(views), views)
	}
	if len(views[0].Members) != 3 || views[0].ViewID != 1 {
		t.Fatalf("initial view = %+v", views[0])
	}
	if len(views[1].Members) != 2 {
		t.Fatalf("exclusion view = %+v", views[1])
	}
	last := views[len(views)-1]
	if len(last.Members) != 3 {
		t.Fatalf("final view = %+v, want p1 back", last)
	}
}

func TestClusterTraceAndStats(t *testing.T) {
	var events []NetEvent
	c := NewCluster(ClusterConfig{Algorithm: GMNonUniform, N: 3})
	c.SetTrace(func(ev NetEvent) { events = append(events, ev) })
	c.Broadcast(0, "x")
	c.RunUntilIdle()
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	st := c.Stats()
	if st.Multicasts != 2 || st.Unicasts != 0 {
		t.Fatalf("non-uniform stats = %+v, want 2 multicasts", st)
	}
	c.SetTrace(nil) // must not panic
}

func TestClusterPreCrashed(t *testing.T) {
	got := 0
	c := NewCluster(ClusterConfig{
		Algorithm:  GM,
		N:          3,
		PreCrashed: []int{2},
		OnDeliver:  func(d Delivery) { got++ },
	})
	c.Broadcast(0, "y")
	c.RunUntilIdle()
	if got != 2 {
		t.Fatalf("deliveries = %d, want 2 (survivors only)", got)
	}
}

func TestClusterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=0 did not panic")
		}
	}()
	NewCluster(ClusterConfig{N: 0})
}

func TestHelpers(t *testing.T) {
	if Milliseconds(1.5) != 1500*time.Microsecond {
		t.Fatal("Milliseconds conversion wrong")
	}
	q := Detectors(10, 100, 5)
	if q.TD != 10*time.Millisecond || q.TMR != 100*time.Millisecond || q.TM != 5*time.Millisecond {
		t.Fatalf("Detectors = %+v", q)
	}
}

func TestClusterWithHeartbeatDetector(t *testing.T) {
	delivered := make(map[int]int)
	c := NewCluster(ClusterConfig{
		Algorithm: FD,
		N:         3,
		Heartbeat: &HeartbeatConfig{Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond},
		OnDeliver: func(d Delivery) { delivered[d.Process]++ },
	})
	c.Broadcast(0, "x")
	c.CrashAt(0, 20*time.Millisecond)
	c.BroadcastAt(1, 30*time.Millisecond, "y")
	c.Run(3 * time.Second)
	// Survivors must deliver both messages; detection runs on heartbeats.
	if delivered[1] != 2 || delivered[2] != 2 {
		t.Fatalf("deliveries = %v, want 2 at each survivor", delivered)
	}
	// Heartbeat traffic must be visible on the wire.
	if c.Stats().Multicasts < 100 {
		t.Fatalf("multicasts = %d, expected heartbeat traffic", c.Stats().Multicasts)
	}
}

func TestClusterHeartbeatWithGM(t *testing.T) {
	views := 0
	c := NewCluster(ClusterConfig{
		Algorithm: GM,
		N:         3,
		Heartbeat: &HeartbeatConfig{Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond},
		OnView:    func(ViewInfo) { views++ },
	})
	c.CrashAt(2, 50*time.Millisecond)
	c.Run(2 * time.Second)
	// Initial views (3 processes) plus the exclusion change (2 survivors).
	if views < 5 {
		t.Fatalf("view notifications = %d, want >= 5", views)
	}
}

func TestClusterWorkloadAndLoadMethods(t *testing.T) {
	// A cluster with the built-in Poisson workload, shaped interactively:
	// mute sender 2 for a window, pause everyone for another, and watch
	// the load events apply in order.
	var events []string
	var eventTimes []time.Duration
	perSender := make(map[int]int)
	c := NewCluster(ClusterConfig{
		Algorithm:  FD,
		N:          3,
		Throughput: 300,
		OnDeliver: func(d Delivery) {
			if d.Process == 0 {
				perSender[int(d.ID.Origin)]++
			}
		},
		OnLoad: func(at time.Duration, ev LoadEvent) {
			events = append(events, ev.String())
			eventTimes = append(eventTimes, at)
		},
	})
	c.ApplyLoad(Mute{At: 100 * time.Millisecond, Sender: 2})
	c.ApplyLoad(Unmute{At: 400 * time.Millisecond, Sender: 2})
	c.ApplyLoad(Pause{At: 600 * time.Millisecond})
	c.ApplyLoad(Resume{At: 700 * time.Millisecond})
	c.ApplyLoad(RateChange{At: 800 * time.Millisecond, Sender: AllSenders, Rate: 600})
	// Silence the workload before draining: RunUntilIdle never returns
	// while a Poisson source keeps scheduling.
	c.ApplyLoad(Pause{At: 1200 * time.Millisecond})
	c.Run(1200 * time.Millisecond)
	c.RunUntilIdle()

	want := []string{"mute p2", "unmute p2", "pause", "resume", "rate all=600/s", "pause"}
	if len(events) != len(want) {
		t.Fatalf("observed load events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, events[i], want[i])
		}
	}
	for i, at := range eventTimes {
		if at != []time.Duration{100, 400, 600, 700, 800, 1200}[i]*time.Millisecond {
			t.Fatalf("event %d applied at %v", i, at)
		}
	}
	for s := 0; s < 3; s++ {
		if perSender[s] == 0 {
			t.Fatalf("sender %d delivered nothing; workload not running: %v", s, perSender)
		}
	}
}

func TestClusterLoadPlanAtConstruction(t *testing.T) {
	// The same shaping as a ClusterConfig.Load timeline, with a silent
	// (zero-throughput) workload raised mid-run by a plan event.
	delivered := 0
	c := NewCluster(ClusterConfig{
		Algorithm: GM,
		N:         3,
		Load: NewLoadPlan().
			Rate(200*time.Millisecond, AllSenders, 900).
			Pause(1100 * time.Millisecond), // silence before the idle drain
		OnDeliver: func(d Delivery) {
			if d.Process == 0 {
				delivered++
			}
		},
	})
	c.Run(150 * time.Millisecond)
	if delivered != 0 {
		t.Fatalf("%d deliveries before the rate change raised a silent workload", delivered)
	}
	c.Run(time.Second)
	c.RunUntilIdle()
	if delivered == 0 {
		t.Fatal("no deliveries after the plan raised the rate")
	}
}

func TestClusterLoadValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range load event accepted")
		}
	}()
	c := NewCluster(ClusterConfig{Algorithm: FD, N: 3})
	c.ApplyLoad(Mute{At: time.Millisecond, Sender: 7})
}

// rejection runs fn and returns the message it panicked with ("" if it
// returned normally).
func rejection(fn func()) (msg string) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case error:
			msg = v.Error()
		default:
			msg = fmt.Sprint(v)
		}
	}()
	fn()
	return ""
}

// TestShellsRejectAlike feeds the same bad systems to both entry points:
// the Runner and NewCluster must reject each one before building
// anything, with the same message — experiment.CoreConfig.Validate's.
func TestShellsRejectAlike(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config // the fields ClusterConfig shares; Crashed is PreCrashed
		want string // a fragment the message must carry
	}{
		{"pre-crash out of range", Config{Algorithm: FD, N: 3, Crashed: []ProcessID{9}}, "process 9"},
		{"majority pre-crashed", Config{Algorithm: FD, N: 3, Crashed: []ProcessID{1, 2}}, "f < n/2"},
		{"pre-crash listed twice", Config{Algorithm: FD, N: 5, Crashed: []ProcessID{4, 4}}, "pre-crashed process 4 listed twice"},
		{"unknown algorithm", Config{Algorithm: 7, N: 3}, "unknown algorithm 7"},
		{"no processes", Config{Algorithm: FD}, "N = 0"},
		{"negative throughput", Config{Algorithm: FD, N: 3, Throughput: -1}, "throughput -1"},
		{"NaN throughput", Config{Algorithm: FD, N: 3, Throughput: math.NaN()}, "throughput NaN"},
		{"infinite throughput", Config{Algorithm: FD, N: 3, Throughput: math.Inf(1)}, "throughput +Inf"},
		{"negative detection time", Config{Algorithm: FD, N: 3, QoS: Detectors(-5, 0, 0)}, "negative QoS"},
		{"negative detection time beside heartbeats", Config{Algorithm: FD, N: 3, QoS: Detectors(-5, 0, 0), Detector: &HeartbeatConfig{}}, "negative QoS"},
		{"negative heartbeat interval", Config{Algorithm: FD, N: 3, Detector: &HeartbeatConfig{Interval: -5 * time.Millisecond}}, "heartbeat Interval = -5ms"},
		{"negative heartbeat timeout", Config{Algorithm: FD, N: 3, Detector: &HeartbeatConfig{Timeout: -1}}, "Timeout = -1ns"},
		{"negative lambda", Config{Algorithm: FD, N: 3, Lambda: -1}, "Lambda = -1"},
		{"NaN lambda", Config{Algorithm: FD, N: 3, Lambda: math.NaN()}, "Lambda = NaN"},
		{"topology of another size", Config{Algorithm: FD, N: 3, Topology: Ring(4)}, "4 processes"},
		{"plan names a missing process", Config{Algorithm: FD, N: 3, Plan: NewFaultPlan(Crash{P: 5})}, "process 5"},
		{"suspicion by an empty monitor list", Config{Algorithm: FD, N: 3, Plan: NewFaultPlan(SuspicionBurst{P: 1, By: []ProcessID{}})}, "empty monitor list"},
		{"suspicion of a process by itself", Config{Algorithm: FD, N: 3, Plan: NewFaultPlan(SuspicionBurst{P: 1, By: []ProcessID{0, 1}})}, "p1 by itself"},
		{"load names a missing sender", Config{Algorithm: FD, N: 3, Load: NewLoadPlan(Mute{Sender: 4})}, "sender 4"},
		{"cross-shard without groups", Config{Algorithm: FD, N: 4, CrossShard: 0.5}, "CrossShard"},
		{"shardmix without groups", Config{Algorithm: FD, N: 4, Load: NewLoadPlan(ShardMix{Fraction: 0.5})}, "shardmix"},
		{"groups of another size", Config{Algorithm: FD, N: 4, Groups: Disjoint(6, 2)}, "6 processes"},
		{"rejoining stack recovering in groups mode", Config{Algorithm: GM, N: 4, Groups: Disjoint(4, 2),
			Plan: NewFaultPlan(Crash{At: time.Millisecond, P: 1}, Recover{At: time.Second, P: 1})}, "crash-recovery"},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Warmup, cfg.Measure, cfg.Replications = time.Millisecond, time.Millisecond, 1
		fromRunner := rejection(func() {
			var r Runner
			r.SteadyAll([]Config{{Algorithm: FD, N: 3, Warmup: time.Millisecond, Measure: time.Millisecond, Replications: 1}, cfg})
		})
		pre := make([]int, len(cfg.Crashed))
		for i, p := range cfg.Crashed {
			pre[i] = int(p)
		}
		fromCluster := rejection(func() {
			NewCluster(ClusterConfig{
				Algorithm: cfg.Algorithm, N: cfg.N, Lambda: cfg.Lambda, QoS: cfg.QoS, Heartbeat: cfg.Detector, Throughput: cfg.Throughput,
				Topology: cfg.Topology, Groups: cfg.Groups, CrossShard: cfg.CrossShard, PreCrashed: pre, Plan: cfg.Plan, Load: cfg.Load,
			})
		})
		if fromRunner == "" || fromRunner != fromCluster || !strings.Contains(fromRunner, tc.want) {
			t.Errorf("%s:\n  Runner:     %q\n  NewCluster: %q\n  want both to mention %q", tc.name, fromRunner, fromCluster, tc.want)
		}
	}
}

// TestClusterRejectsInteractiveEventsAtTheCall holds interactively
// scheduled events to the rules of planned ones: what NewCluster would
// reject in ClusterConfig.Plan or Load, Apply rejects when called, not
// later inside Run.
func TestClusterRejectsInteractiveEventsAtTheCall(t *testing.T) {
	sharded := func(alg Algorithm) *Cluster {
		return NewCluster(ClusterConfig{Algorithm: alg, N: 4, Groups: Disjoint(4, 2)})
	}
	gm := sharded(GM)
	gm.CrashAt(1, time.Millisecond)
	if msg := rejection(func() { gm.Apply(Recover{At: time.Second, P: 1}) }); !strings.Contains(msg, "crash-recovery") {
		t.Errorf("Recover on a GM groups-mode cluster: %q, want a crash-recovery rejection at the call", msg)
	}
	gm.Run(2 * time.Second) // nothing was scheduled: Run must not panic

	fd := sharded(FD)
	fd.CrashAt(1, time.Millisecond)
	if msg := rejection(func() { fd.Apply(Recover{At: time.Second, P: 1}) }); msg != "" {
		t.Errorf("Recover on an FD groups-mode cluster rejected: %s", msg)
	}
	fd.Run(2 * time.Second)
	if fd.Crashed(1) {
		t.Error("p1 did not recover")
	}

	plain := NewCluster(ClusterConfig{Algorithm: FD, N: 3})
	if msg := rejection(func() { plain.ApplyLoad(ShardMix{At: time.Millisecond, Fraction: 0.5}) }); !strings.Contains(msg, "shardmix") {
		t.Errorf("ShardMix without groups: %q, want the shardmix rejection", msg)
	}
	if msg := rejection(func() { plain.Apply(SuspicionBurst{P: 1, By: []ProcessID{}}) }); !strings.Contains(msg, "empty monitor list") {
		t.Errorf("Apply of a suspicion by no monitor: %q, want the empty-monitor-list rejection", msg)
	}

	// Broadcasts and multicasts name their sender and destinations at the
	// call too, and Crashed its process, so a bad one fails there and the
	// cluster runs on.
	shards := sharded(FD)
	for _, tc := range []struct {
		name string
		c    *Cluster
		call func(c *Cluster)
		want string
	}{
		{"Broadcast from p7 of 3", plain, func(c *Cluster) { c.Broadcast(7, "x") }, "repro: process 7, want 0..2"},
		{"BroadcastAt from p7 of 3", plain, func(c *Cluster) { c.BroadcastAt(7, time.Millisecond, "x") }, "repro: process 7, want 0..2"},
		{"Multicast from p-1 of 4", shards, func(c *Cluster) { c.Multicast(-1, []int{0}, "x") }, "repro: process -1, want 0..3"},
		{"MulticastAt from p4 of 4", shards, func(c *Cluster) { c.MulticastAt(4, time.Millisecond, []int{0}, "x") }, "repro: process 4, want 0..3"},
		{"MulticastAt without groups", plain, func(c *Cluster) { c.MulticastAt(0, time.Millisecond, []int{0}, "x") }, "needs a multi-group"},
		{"MulticastAt to group 5 of 2", shards, func(c *Cluster) { c.MulticastAt(0, time.Millisecond, []int{5}, "x") }, "bad destination list [5]"},
		{"MulticastAt to group 1 twice", shards, func(c *Cluster) { c.MulticastAt(0, time.Millisecond, []int{1, 1}, "x") }, "bad destination list [1 1]"},
		{"MulticastAt to no group", shards, func(c *Cluster) { c.MulticastAt(0, time.Millisecond, nil, "x") }, "bad destination list []"},
		{"Crashed of p7 of 3", plain, func(c *Cluster) { c.Crashed(7) }, "repro: process 7, want 0..2"},
	} {
		if msg := rejection(func() { tc.call(tc.c) }); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: %q, want a rejection at the call mentioning %q", tc.name, msg, tc.want)
		}
	}
	for name, c := range map[string]*Cluster{"plain": plain, "sharded": shards} {
		if msg := rejection(func() { c.Run(time.Second) }); msg != "" {
			t.Errorf("%s cluster: Run after the rejected calls panicked: %s", name, msg)
		}
	}
}
