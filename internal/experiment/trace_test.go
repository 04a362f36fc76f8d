package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/golden"
	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/topo"
)

// traceSweep is a small two-point grid — abstract QoS model versus the
// concrete heartbeat detector — used by the trace round-trip tests.
func traceSweep(tr *Trace) Sweep {
	return Sweep{
		Base: Config{
			Algorithm:    FD,
			N:            3,
			Throughput:   50,
			Seed:         7,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        5 * time.Second,
			Replications: 2,
			Observers:    []ObserverFactory{tr.Observer},
		},
		Detectors: []*Heartbeat{nil, {Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond}},
	}
}

// TestTraceReplayRoundTrip is the acceptance path: a sweep that includes
// a heartbeat-FD point runs end to end with the trace observer, and the
// resulting trace replays to the same delivery digest for every
// replication.
func TestTraceReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	var r Runner
	res := r.Sweep(traceSweep(tr))
	if len(res) != 2 || !res[0].Stable || !res[1].Stable {
		t.Fatalf("sweep failed: %+v", res)
	}
	digests := tr.Digests()
	if len(digests) != 4 { // 2 points x 2 replications
		t.Fatalf("got %d digests, want 4", len(digests))
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(tr.Digests()) != 0 {
		t.Fatal("Flush did not drop the buffers")
	}

	text := buf.String()
	for _, marker := range []string{"C {", "\nB ", "\nN wire ", "\nD ", "\nE "} {
		if !strings.Contains(text, marker) {
			t.Fatalf("trace lacks %q records:\n%.400s", marker, text)
		}
	}

	// The second input is the same trace as older builds recorded it: the
	// since-deleted intra-simulation parallel mode and sketch-mode
	// distributions added three header keys, which replay must keep
	// accepting.
	legacy := strings.ReplaceAll(text, "C {", `C {"parallelSim":true,"simWorkers":4,"distSketch":0.01,`)
	if n := strings.Count(legacy, `"parallelSim":true`); n != 4 {
		t.Fatalf("legacy trace carries %d rewritten headers, want 4", n)
	}
	for name, trace := range map[string]string{"recorded": text, "legacy header": legacy} {
		results, err := Replay(strings.NewReader(trace))
		if err != nil {
			t.Fatalf("%s: Replay: %v", name, err)
		}
		if len(results) != 4 {
			t.Fatalf("%s: replayed %d replications, want 4", name, len(results))
		}
		for i, rr := range results {
			if !rr.Match {
				t.Fatalf("%s: replication (point %d, rep %d) does not replay: recorded %016x, replayed %016x",
					name, rr.Point, rr.Rep, rr.Recorded, rr.Replayed)
			}
			if rr.Recorded != digests[i].Digest || rr.Point != digests[i].Point || rr.Rep != digests[i].Rep {
				t.Fatalf("%s: replay %d = %+v, digest listing said %+v", name, i, rr, digests[i])
			}
		}
	}
}

// TestTraceDeterministicAcrossWorkers pins the flushed trace bytes to
// the same content at any worker count.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		return fullTrace(t, func(tr *Trace, _ *Invariants) { (&Runner{Workers: workers}).Sweep(traceSweep(tr)) })
	}
	if diff := golden.Diff(run(5), run(1)); diff != "" {
		t.Fatalf("the trace at 5 workers differs from the one at 1: %s", diff)
	}
}

// TestTraceReplayTransient records and replays the crash-transient
// scenario, whose workload and fault schedule differ from steady state.
func TestTraceReplayTransient(t *testing.T) {
	cfg := TransientConfig{
		Config: Config{
			Algorithm:    GM,
			N:            3,
			Throughput:   30,
			QoS:          fd.QoS{TD: 10 * time.Millisecond},
			Warmup:       300 * time.Millisecond,
			Drain:        8 * time.Second,
			Replications: 2,
		},
		Crash:  0,
		Sender: 1,
	}
	text := fullTrace(t, func(tr *Trace, _ *Invariants) {
		cfg.Observers = []ObserverFactory{tr.Observer}
		if res := (&Runner{}).Transient(cfg); res.Lost > 0 {
			t.Fatalf("lost probes: %+v", res)
		}
	})
	traceHas(`"kind":"transient"`)(t, text)
	replays(t, text, 2)
}

// TestReplayDetectsTampering flips one digest and expects the replay to
// report a mismatch rather than silently agree.
func TestReplayDetectsTampering(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	cfg := Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   20,
		Warmup:       200 * time.Millisecond,
		Measure:      500 * time.Millisecond,
		Drain:        5 * time.Second,
		Replications: 1,
		Observers:    []ObserverFactory{tr.Observer},
	}
	RunSteady(cfg)
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tampered := []byte(buf.String())
	i := bytes.Index(tampered, []byte("\nE ")) + len("\nE ")
	if tampered[i] == '0' {
		tampered[i] = '1'
	} else {
		tampered[i] = '0'
	}
	results, err := Replay(bytes.NewReader(tampered))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(results) != 1 || results[0].Match {
		t.Fatalf("tampered digest replayed as a match: %+v", results)
	}
}

// TestReplayRejectsTruncatedTrace checks the error paths: a trace cut
// mid-replication and an orphan digest record both fail loudly.
func TestReplayRejectsTruncatedTrace(t *testing.T) {
	if _, err := Replay(strings.NewReader(`C {"kind":"steady","alg":1,"n":3,"throughput":10,"seed":1,"warmup":1,"measure":1,"drain":1,"replications":1}` + "\n")); err == nil {
		t.Fatal("truncated trace did not error")
	}
	if _, err := Replay(strings.NewReader("E 0000000000000000\n")); err == nil {
		t.Fatal("orphan E record did not error")
	}
	if _, err := Replay(strings.NewReader("C not-json\n")); err == nil {
		t.Fatal("bad header did not error")
	}
}

// badHeaders are trace headers that parse as JSON but describe nothing
// runnable: a valid steady header (badHeaderLine) with one thing wrong.
// A key given twice takes its last value, so a row can also replace one
// of the base's.
var badHeaders = map[string]string{
	"geo topology without sites":   `"topo":{"gen":"geo","n":3,"sites":0,"perSite":0}`,
	"unknown plan kind":            `"plan":[{"kind":"meteor","at":5}]`,
	"retired precrash kind":        `"plan":[{"kind":"precrash","p":1}]`,
	"retired shardmix kind":        `"load":[{"kind":"shardmix","at":5,"fraction":0.5}]`,
	"retired cliqueoverlap map":    `"groups":{"kind":"cliqueoverlap","n":3,"k":2}`,
	"unknown load kind":            `"load":[{"kind":"flood"}]`,
	"plan event of a load kind":    `"plan":[{"kind":"mute","sender":1}]`,
	"event without a kind":         `"plan":[{"at":5,"p":1}]`,
	"plan is no array":             `"plan":{"kind":"crash"}`,
	"event is no object":           `"load":[7]`,
	"wrong field type":             `"plan":[{"kind":"crash","p":"one"}]`,
	"fractional instant":           `"load":[{"kind":"pause","at":1.5}]`,
	"empty monitor list":           `"plan":[{"kind":"suspect","p":1,"by":[]}]`,
	"process out of range":         `"plan":[{"kind":"crash","p":3}]`,
	"negative lambda":              `"lambda":-1`,
	"negative window":              `"drain":-1`,
	"negative detection time":      `"td":-5`,
	"transient sender missing":     `"kind":"transient","sender":9`,
	"transient sender crashes":     `"kind":"transient","crash":1,"sender":1`,
	"transient sender pre-crashed": `"kind":"transient","crashed":[2],"sender":2`,
	"transient crash pre-crashed":  `"kind":"transient","crashed":[2],"crash":2,"sender":1`,
}

// retiredKinds holds the bad headers that name a kind the format no
// longer has, with the error each must give: the kind by name.
var retiredKinds = map[string]string{
	"retired precrash kind":     `unknown plan event kind "precrash"`,
	"retired shardmix kind":     `unknown load event kind "shardmix"`,
	"retired cliqueoverlap map": `unknown group map kind "cliqueoverlap"`,
}

func badHeaderLine(extra string) string {
	return `C {"kind":"steady","alg":1,"n":3,"throughput":10,"seed":1,"warmup":1,"measure":1,"drain":1,"replications":1,` + extra + "}"
}

// TestReplayRejectsBadHeaders feeds Replay the bad headers. Each must come
// back as an error — a header is input, so none may panic or be silently
// repaired.
func TestReplayRejectsBadHeaders(t *testing.T) {
	for name, extra := range badHeaders {
		results, err := Replay(strings.NewReader(badHeaderLine(extra) + "\nE 0000000000000000\n"))
		if err == nil {
			t.Errorf("%s: replayed without error: %+v", name, results)
		} else if want := retiredKinds[name]; !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want an error naming the kind (%s)", name, err, want)
		}
	}
}

// FuzzTraceHeader feeds arbitrary bytes to Replay's header path — a whole
// C line, topology and group specs included — up to the point where the
// replication would run: whatever the bytes say, the answer is a validated
// configuration or an error, never a panic. The topology and group generators allocate
// by process count, so the target (not the product) caps the sizes it lets
// through.
func FuzzTraceHeader(f *testing.F) {
	f.Add([]byte(goldenSteadyHeader))
	f.Add([]byte(goldenTransientHeader))
	for _, extra := range badHeaders {
		f.Add([]byte(badHeaderLine(extra)))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var h traceHeader
		if json.Unmarshal(bytes.TrimPrefix(line, []byte("C ")), &h) != nil || oversized(h) {
			return
		}
		scenarioFromHeader(h)
	})
}

// oversized reports whether a header names more than 64 of anything a
// generator or validator allocates by: processes, sites, groups, wires,
// edges, or a member id beyond them.
func oversized(h traceHeader) bool {
	big := false
	cap64 := func(vs ...int) {
		for _, v := range vs {
			big = big || v > 64
		}
	}
	cap64(h.N)
	if s := h.Topo; s != nil {
		cap64(s.N, s.Sites, s.PerSite, s.Sites*s.PerSite, len(s.Wires), len(s.Edges), len(s.Groups))
		for _, e := range s.Edges {
			cap64(e[:]...)
		}
		for _, g := range s.Groups {
			cap64(g...)
		}
	}
	if s := h.Groups; s != nil {
		cap64(s.N, s.K, len(s.Raw))
		for _, g := range s.Raw {
			for _, p := range g {
				cap64(int(p))
			}
		}
	}
	return big
}

// goldenHeaderConfigs returns the two configurations of
// TestTraceHeaderGolden, which together set every field a trace header
// carries: a steady point on a geo-sharded system whose plans use every
// event kind — with zero-valued At/P/Sender cases, which the header omits
// — and a crash-transient point under the QoS detector model.
func goldenHeaderConfigs() (steady, transient Config) {
	ms := time.Millisecond
	geo := topo.Geo(topo.GeoConfig{Sites: 4, PerSite: 2, WAN: topo.Wire{Delay: 20 * ms, Loss: 0.01}})
	steady = Config{
		Algorithm:       FD,
		N:               8,
		Throughput:      120,
		Lambda:          2,
		Topology:        geo,
		Groups:          groups.FromSites(geo),
		CrossShard:      0.25,
		Detector:        &Heartbeat{Interval: 5 * ms},
		Crashed:         []proto.PID{7, 5},
		DisableRenumber: true,
		Seed:            42,
		Warmup:          300 * ms,
		Measure:         4 * time.Second,
		Drain:           6 * time.Second,
		Replications:    3,
		Plan: NewFaultPlan(
			Crash{},
			Crash{At: 1000 * ms, P: 3},
			Recover{At: 2000 * ms, P: 3},
			SuspicionBurst{At: 1500 * ms, P: 2, For: 50 * ms, By: []proto.PID{0, 1}},
			SuspicionBurst{At: 1600 * ms, P: 1},
			Partition{At: 2500 * ms, Groups: [][]proto.PID{{0, 1, 2, 3}, {4, 5, 6}}},
			Heal{At: 3000 * ms},
			LinkFault{At: 3200 * ms, From: 1, To: 4, Loss: 0.5, ExtraDelay: 3 * ms},
			LinkFault{At: 3400 * ms, From: 4},
		).PartitionSites(3600*ms, geo, 1, 2).Heal(3700 * ms),
		Load: NewLoadPlan(
			RateChange{},
			RateChange{At: 1000 * ms, Sender: AllSenders, Rate: 300},
			Burst{At: 1200 * ms, For: 200 * ms, Sender: 2, Factor: 4},
			Burst{At: 1300 * ms, Sender: AllSenders, Factor: 0.5},
			Mute{},
			Mute{At: 2000 * ms, Sender: 3},
			Unmute{At: 2100 * ms, Sender: AllSenders},
			Pause{At: 3000 * ms},
			Resume{At: 3100 * ms},
		),
	}
	transient = Config{
		Algorithm:    GM,
		N:            3,
		Throughput:   30,
		QoS:          fd.QoS{TD: 10 * ms, TMR: 1000 * ms, TM: 2 * ms},
		Detector:     &Heartbeat{},
		Warmup:       300 * ms,
		Drain:        8 * time.Second,
		Replications: 2,
		transient:    &transientInfo{crash: 2, sender: 1},
	}
	return steady.withDefaults(), transient.withDefaults()
}

// The C lines the two golden configurations produced when this test was
// written, from the code that preceded the event-codec refactor. They are
// the byte fence of the header format: never re-record them to make a
// change pass.
const (
	goldenSteadyHeader    = `C {"kind":"steady","point":3,"rep":1,"alg":1,"n":8,"throughput":120,"lambda":2,"crashed":[7,5],"disableRenumber":true,"seed":42,"warmup":300000000,"measure":4000000000,"drain":6000000000,"replications":3,"hbInterval":5000000,"hbTimeout":15000000,"topo":{"gen":"geo","n":8,"sites":4,"perSite":2,"wan":{"delay":20000000,"loss":0.01}},"groups":{"kind":"raw","n":8,"raw":[[0,1],[2,3],[4,5],[6,7]]},"crossShard":0.25,"plan":[{"kind":"crash"},{"kind":"crash","at":1000000000,"p":3},{"kind":"recover","at":2000000000,"p":3},{"kind":"suspect","at":1500000000,"p":2,"for":50000000,"by":[0,1]},{"kind":"suspect","at":1600000000,"p":1},{"kind":"partition","at":2500000000,"groups":[[0,1,2,3],[4,5,6]]},{"kind":"heal","at":3000000000},{"kind":"link","at":3200000000,"from":1,"to":4,"loss":0.5,"delay":3000000},{"kind":"link","at":3400000000,"from":4},{"kind":"partition","at":3600000000,"groups":[[2,3,4,5],[0,1,6,7]]},{"kind":"heal","at":3700000000}],"load":[{"kind":"rate"},{"kind":"rate","at":1000000000,"sender":-1,"rate":300},{"kind":"burst","at":1200000000,"sender":2,"factor":4,"for":200000000},{"kind":"burst","at":1300000000,"sender":-1,"factor":0.5},{"kind":"mute"},{"kind":"mute","at":2000000000,"sender":3},{"kind":"unmute","at":2100000000,"sender":-1},{"kind":"pause","at":3000000000},{"kind":"resume","at":3100000000}]}`
	goldenTransientHeader = `C {"kind":"transient","point":0,"rep":0,"alg":2,"n":3,"throughput":30,"lambda":1,"td":10000000,"tmr":1000000000,"tm":2000000,"seed":1,"warmup":300000000,"measure":20000000000,"drain":8000000000,"replications":2,"hbInterval":10000000,"hbTimeout":30000000,"crash":2,"sender":1}`
)

// legacySteadyHeader is the steady C line as builds with sketch-mode
// distributions wrote it. It is decode-only: replay ignores the key.
const legacySteadyHeader = `C {"kind":"steady","point":3,"rep":1,"alg":1,"n":8,"throughput":120,"lambda":2,"crashed":[7,5],"disableRenumber":true,"distSketch":0.01,"seed":42,"warmup":300000000,"measure":4000000000,"drain":6000000000,"replications":3,"hbInterval":5000000,"hbTimeout":15000000,"topo":{"gen":"geo","n":8,"sites":4,"perSite":2,"wan":{"delay":20000000,"loss":0.01}},"groups":{"kind":"raw","n":8,"raw":[[0,1],[2,3],[4,5],[6,7]]},"crossShard":0.25,"plan":[{"kind":"crash"},{"kind":"crash","at":1000000000,"p":3},{"kind":"recover","at":2000000000,"p":3},{"kind":"suspect","at":1500000000,"p":2,"for":50000000,"by":[0,1]},{"kind":"suspect","at":1600000000,"p":1},{"kind":"partition","at":2500000000,"groups":[[0,1,2,3],[4,5,6]]},{"kind":"heal","at":3000000000},{"kind":"link","at":3200000000,"from":1,"to":4,"loss":0.5,"delay":3000000},{"kind":"link","at":3400000000,"from":4},{"kind":"partition","at":3600000000,"groups":[[2,3,4,5],[0,1,6,7]]},{"kind":"heal","at":3700000000}],"load":[{"kind":"rate"},{"kind":"rate","at":1000000000,"sender":-1,"rate":300},{"kind":"burst","at":1200000000,"sender":2,"factor":4,"for":200000000},{"kind":"burst","at":1300000000,"sender":-1,"factor":0.5},{"kind":"mute"},{"kind":"mute","at":2000000000,"sender":3},{"kind":"unmute","at":2100000000,"sender":-1},{"kind":"pause","at":3000000000},{"kind":"resume","at":3100000000}]}`

// TestTraceHeaderGolden pins the trace header byte for byte, and checks
// the recorded bytes decode back to the configuration that wrote them.
func TestTraceHeaderGolden(t *testing.T) {
	steady, transient := goldenHeaderConfigs()
	for _, tc := range []struct {
		name       string
		cfg        Config
		point, rep int
		want       string
	}{
		{"steady", steady, 3, 1, goldenSteadyHeader},
		{"transient", transient, 0, 0, goldenTransientHeader},
	} {
		if err := tc.cfg.validate(); err != nil {
			t.Fatalf("%s: golden configuration is invalid: %v", tc.name, err)
		}
		var buf bytes.Buffer
		tr := NewTrace(&buf)
		tr.Observer(tc.point, tc.rep, tc.cfg)
		if err := tr.Flush(); err != nil {
			t.Fatalf("%s: Flush: %v", tc.name, err)
		}
		// An unrun replication is its header plus the digest of no deliveries.
		if got, want := buf.String(), tc.want+"\nE cbf29ce484222325\n"; got != want {
			t.Errorf("%s: trace header changed\n got: %s\nwant: %s", tc.name, got, want)
		}

		var h traceHeader
		if err := json.Unmarshal([]byte(strings.TrimPrefix(tc.want, "C ")), &h); err != nil {
			t.Errorf("%s: golden header does not parse: %v", tc.name, err)
			continue
		}
		back, err := configFromHeader(h)
		if err != nil {
			t.Errorf("%s: configFromHeader: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(back.Plan, tc.cfg.Plan) || !reflect.DeepEqual(back.Load, tc.cfg.Load) {
			t.Errorf("%s: plans do not survive the header:\n plan %v\n load %v", tc.name, back.Plan, back.Load)
		}
		if h.Kind == "transient" {
			back.transient = &transientInfo{crash: proto.PID(h.Crash), sender: proto.PID(h.Sender)}
		}
		again, err := json.Marshal(headerFromConfig(back, h.Point, h.Rep))
		if err != nil {
			t.Fatalf("%s: re-encoding: %v", tc.name, err)
		}
		if got := "C " + string(again); got != tc.want {
			t.Errorf("%s: decoded header re-encodes differently\n got: %s\nwant: %s", tc.name, got, tc.want)
		}
	}

	// The legacy steady line is decode-only: it must read back to the
	// configuration the current line does, and differ from it by nothing
	// but the sketch-mode key.
	const key = `"distSketch":0.01,`
	if strings.Replace(legacySteadyHeader, key, "", 1) != goldenSteadyHeader {
		t.Errorf("legacy steady header differs from the current one by more than %s", key)
	}
	decode := func(line string) Config {
		var h traceHeader
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "C ")), &h); err != nil {
			t.Fatalf("header does not parse: %v", err)
		}
		cfg, err := configFromHeader(h)
		if err != nil {
			t.Fatalf("configFromHeader: %v", err)
		}
		return cfg
	}
	if legacy, current := decode(legacySteadyHeader), decode(goldenSteadyHeader); !reflect.DeepEqual(legacy, current) {
		t.Errorf("legacy steady header decodes differently:\n legacy  %+v\n current %+v", legacy, current)
	}
}

// fullTrace runs run with a trace and a specification checker, whose
// findings fail t, and returns the flushed trace: C/B/N/F/L/D/E lines,
// where the E record digests only the D lines.
func fullTrace(t *testing.T, run func(tr *Trace, inv *Invariants)) string {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	var inv Invariants
	run(tr, &inv)
	if err := inv.Err(); err != nil {
		t.Error(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.String()
}

// steadyTrace runs cfg's steady point on a Runner of the given workers
// (0 for GOMAXPROCS) and returns its flushed trace.
func steadyTrace(t *testing.T, cfg Config, workers int) string {
	return fullTrace(t, func(tr *Trace, _ *Invariants) {
		cfg.Observers = append(cfg.Observers, tr.Observer)
		(&Runner{Workers: workers}).Steady(cfg)
	})
}

// replays checks that text replays from the trace alone: n replications,
// each to the digest it recorded.
func replays(t *testing.T, text string, n int) {
	t.Helper()
	results, err := Replay(strings.NewReader(text))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != n {
		t.Fatalf("replayed %d replications, want %d", len(results), n)
	}
	for _, res := range results {
		if !res.Match {
			t.Errorf("replication (point %d, rep %d) diverged: recorded %016x, replayed %016x",
				res.Point, res.Rep, res.Recorded, res.Replayed)
		}
	}
}

// traceCase is one replication pinned line for line by its full trace,
// whose lines are the records of the golden case "trace/" and its name.
// TestFullTraceGolden runs each case on a new system and
// TestReusedReplicationMatchesGolden on systems that other replications
// left behind. The Trace's per-replication observer
// implements all five observer interfaces, so the order of its lines is
// the order in which the replication pipeline calls its observers' hooks:
// a refactor of that pipeline must reproduce every stream byte for byte.
type traceCase struct {
	name string
	// cfg is a steady point; transient, when set, replaces it with a
	// crash-transient point.
	cfg       Config
	transient *TransientConfig
	// check looks for the lines that show the trace ran what the case
	// pins; nil checks the digest alone.
	check func(t *testing.T, text string)
}

// config is the case's configuration, whichever kind of point it is.
func (tc *traceCase) config() Config {
	if tc.transient != nil {
		return tc.transient.Config
	}
	return tc.cfg
}

// runAfter runs the case on a one-worker Runner as the last point of a
// batch, after the points in before (of the case's kind; a crash-transient
// one crashes p1 and probes from p0), with observers on the case's own
// point. It fails t when the case measured nothing or lost its probe.
func (tc *traceCase) runAfter(t *testing.T, before []Config, observers ...ObserverFactory) {
	t.Helper()
	r := &Runner{Workers: 1}
	if tc.transient == nil {
		a := tc.cfg
		a.Observers = observers
		res := r.SteadyAll(append(before, a))
		if last := res[len(before)]; last.Messages == 0 || last.Diverged {
			t.Fatalf("replication measured nothing: %+v", last)
		}
		return
	}
	pts := make([]TransientConfig, 0, len(before)+1)
	for _, b := range before {
		pts = append(pts, TransientConfig{Config: b, Crash: 1, Sender: 0})
	}
	a := *tc.transient
	a.Observers = observers
	if res := r.TransientAll(append(pts, a)); res[len(before)].Lost != 0 {
		t.Fatalf("crash-transient replication lost its probe: %+v", res[len(before)])
	}
}

// traceHas checks that the trace carries every marker.
func traceHas(markers ...string) func(*testing.T, string) {
	return func(t *testing.T, text string) {
		t.Helper()
		for _, m := range markers {
			if !strings.Contains(text, m) {
				t.Errorf("trace has no %q", m)
			}
		}
	}
}

// fullTraceCases are the pinned replications.
func fullTraceCases() []traceCase {
	const ms = time.Millisecond
	base := Config{
		N:            3,
		Throughput:   60,
		QoS:          fd.QoS{TD: 10 * ms},
		Seed:         23,
		Warmup:       300 * ms,
		Measure:      700 * ms,
		Drain:        5 * time.Second,
		Replications: 1,
	}

	// One steady and one crash-transient replication, recorded from the
	// code that preceded the one-pipeline refactor.
	steady := base
	steady.Algorithm = FD
	steady.Plan = NewFaultPlan().
		Suspect(350*ms, 0, 30*ms, 1).
		Crash(500*ms, 2).
		Recover(800*ms, 2)
	steady.Load = NewLoadPlan().
		Burst(400*ms, 100*ms, AllSenders, 3).
		Mute(600*ms, 1).
		Unmute(900*ms, 1)

	transient := TransientConfig{Config: base, Crash: 0, Sender: 1}
	transient.Algorithm = GM
	// At the crash instant the scripted crash applies first, then the
	// sender A-broadcasts the probe: the first B line after the F line is
	// the probe's, in the same instant.
	probeAfterCrash := func(t *testing.T, text string) {
		_, after, crashed := strings.Cut(text, "\nF 300000000 crash p0\n")
		_, after, _ = strings.Cut("\n"+after, "\nB ")
		probe, _, _ := strings.Cut(after, "\n")
		if !crashed || !strings.HasPrefix(probe, "1 1 ") || !strings.HasSuffix(probe, " 300000000") {
			t.Errorf("crash-transient trace: first broadcast after the crash at 300 ms is %q, want the probe of p1 in that instant", "B "+probe)
		}
	}

	// The GM stack under load through both of its rejoin paths: a wrong
	// suspicion excludes p3, which rejoins by state transfer once it ends,
	// and p4 crashes and comes back as a fresh incarnation that rejoins the
	// same way. The sequencer's flush sets, stability pruning and
	// re-sequencing after each view change all shape this stream. Its
	// digest was recorded from the sequencer that still rescanned its
	// whole flush set on every stability notice.
	gmRun := base
	gmRun.Algorithm = GM
	gmRun.N = 5
	gmRun.Throughput = 400
	gmRun.Plan = NewFaultPlan().
		Suspect(400*ms, 3, 60*ms).
		Crash(600*ms, 4).
		Recover(750*ms, 4)
	oneWelcomePerRejoin := func(t *testing.T, text string) {
		welcomes := 0
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "N send ") && strings.HasSuffix(line, " gm.MsgWelcome") {
				welcomes++
			}
		}
		if welcomes != 2 {
			t.Errorf("GM trace sends %d state transfers, want one per rejoin (2)", welcomes)
		}
	}

	// Both stacks at n=7 under frequent instantaneous wrong suspicions
	// (T_MR 100 ms, T_M 0): every mistake puts a suspect edge and its trust
	// edge in one instant beside protocol events, so a detector timer or a
	// view change that schedules out of order changes these bytes. The
	// digests were recorded from the detector that still scheduled its
	// mistakes as closures and the sequencer that sent unpooled messages.
	frequent := func(alg Algorithm) Config {
		c := base
		c.Algorithm, c.N, c.Throughput, c.QoS = alg, 7, 100, fd.QoS{TMR: 100 * ms}
		return c
	}

	// One of wide-topo's FD points with short windows: 32 processes on a
	// relaying ring and a perfect detector. Every process grows a table row
	// per origin it hears from and builds its first few dozen consensus
	// instances without recycling any, so this stream pins the FD stack's
	// cold start at width. The digest was recorded from the stack that still
	// allocated a ring per origin, a closure per instance slot and a body
	// slice per logged batch.
	wide := base
	wide.Algorithm, wide.N, wide.Throughput, wide.QoS = FD, 32, 20, fd.QoS{}
	wide.Topology = topo.Ring(32)

	// Both stacks as two disjoint shards of three with 30 % cross-shard
	// traffic: every protocol message travels in a group envelope, and the
	// router's own grams and timestamp proposals share the wires. These
	// streams pin the payload names the envelopes render — the group, then
	// the inner message — beside the timing. The digests were recorded from
	// the stack whose wire boxes each kept their own free list and count.
	sharded := func(alg Algorithm) Config {
		c := base
		c.Algorithm, c.N, c.QoS = alg, 6, fd.QoS{}
		c.Groups, c.CrossShard = groups.Disjoint(6, 2), 0.3
		return c
	}

	// The FD stack behind the heartbeat detector through a crash, a recovery
	// and a partition heal, ungrouped and as two disjoint shards: recovery
	// restarts the detector and arms the catch-up probe of every endpoint
	// the process runs, a heal arms the probe of every live one. Both runs
	// lose messages to the FD wedge after a heal. The digests were recorded
	// from the code in which the groups router still walked its own
	// instances on a recovery or heal.
	healed := func(m *groups.GroupMap, crash proto.PID, cut ...[]proto.PID) Config {
		c := base
		c.Algorithm = FD
		c.Detector = &Heartbeat{Interval: 10 * ms, Timeout: 30 * ms}
		c.Measure = 900 * ms
		c.QoS = fd.QoS{}
		if m != nil {
			c.N, c.Groups, c.CrossShard = m.N(), m, 0.3
		}
		c.Plan = NewFaultPlan().
			Crash(450*ms, crash).
			Recover(700*ms, crash).
			Partition(800*ms, cut...).
			Heal(950 * ms)
		return c
	}
	healedMarkers := traceHas("\nF 700000000 recover p", "\nF 950000000 heal\n")

	// The GM stack behind the heartbeat detector at n=3: a partition cuts
	// p2 off, p0 and p1 exclude it on its silence, and after the heal p2
	// finds itself behind the group (the staleness probe), excludes itself
	// and rejoins through the join loop; later a crash and recovery of p1
	// restart its detector. Every re-armed timer of the detector and the
	// membership service shapes this stream. The digest was recorded from
	// the code whose detector, join loop and staleness probe each scheduled
	// a closure per firing.
	hbGM := base
	hbGM.Algorithm = GM
	hbGM.Detector = &Heartbeat{Interval: 10 * ms, Timeout: 30 * ms}
	hbGM.QoS = fd.QoS{}
	hbGM.Plan = NewFaultPlan().
		Partition(400*ms, []proto.PID{0, 1}, []proto.PID{2}).
		Heal(550*ms).
		Crash(800*ms, 1).
		Recover(860*ms, 1)

	return []traceCase{
		{name: "FD n=3 steady", cfg: steady, check: traceHas("C {", "\nB ", "\nN send ", "\nN wire ",
			"\nN deliver ", "\nN drop ", "\nF 350000000 ", "\nF 500000000 crash p2\n", "\nF 800000000 recover p2\n",
			"\nL 400000000 ", "\nL 600000000 ", "\nL 900000000 ", "\nD ", "\nE ")},
		{name: "GM n=3 transient", transient: &transient, check: probeAfterCrash},
		{name: "GM n=5 rejoins", cfg: gmRun, check: oneWelcomePerRejoin},
		{name: "FD n=7 suspicions", cfg: frequent(FD)},
		{name: "GM n=7 suspicions", cfg: frequent(GM)},
		{name: "FD n=32 ring", cfg: wide},
		{name: "FD n=6 sharded", cfg: sharded(FD), check: traceHas(" g0{MsgAck[k=", " mgram ", " tsprop ")},
		{name: "GM n=6 sharded", cfg: sharded(GM), check: traceHas(" g1{seqabcast.MsgAck}", " mgram ", " tsprop ")},
		{name: "FD n=3 heartbeat heal", cfg: healed(nil, 2, []proto.PID{0, 1}, []proto.PID{2}),
			check: healedMarkers},
		{name: "FD n=6 sharded heartbeat heal", cfg: healed(groups.Disjoint(6, 2), 4, []proto.PID{0, 1, 2, 3}, []proto.PID{4, 5}),
			check: healedMarkers},
		{name: "GM n=3 heartbeat", cfg: hbGM,
			check: traceHas(" gm.MsgJoinReq", " gm.MsgWelcome", "\nF 550000000 heal\n", "\nF 860000000 recover p1\n")},
	}
}

// TestMain fails an unfiltered run that leaves a "trace/", "plan/" or
// "load/" case of the golden corpus uncompared.
func TestMain(m *testing.M) { os.Exit(golden.Main(m, "trace/", "plan/", "load/")) }

// TestFullTraceGolden runs every pinned replication on a new system.
func TestFullTraceGolden(t *testing.T) {
	for _, tc := range fullTraceCases() {
		t.Run(tc.name, func(t *testing.T) {
			text := fullTrace(t, func(tr *Trace, inv *Invariants) {
				tc.runAfter(t, nil, tr.Observer, inv.Observer)
			})
			if tc.check != nil {
				tc.check(t, text)
			}
			golden.Check(t, "trace/"+tc.name, golden.Lines(text))
		})
	}
}
