package experiment

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/groups"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Trace is a cross-cutting observer that streams every observed
// replication to an io.Writer in a replayable text format, so any sweep
// point can be re-run and inspected offline. Each replication records
// its full configuration, every A-broadcast, every message lifecycle
// point of the network model (send, wire, deliver, drop), every fault-
// plan event as it applies and every A-delivery, and closes with an
// FNV-1a digest of its delivery records.
// Replay re-executes a trace's replications from the recorded
// configurations and checks the digests match — the simulations are
// deterministic in virtual time, so a trace replays identically on any
// machine.
//
// Attach it by appending its Observer method to Config.Observers. Events
// are buffered per replication; call Flush after the run to write the
// buffers in canonical (point, replication) order, which makes the
// output bit-identical at any Runner.Workers count.
//
// The format is line-oriented; times are virtual nanoseconds:
//
//	C <config JSON>                    replication header (see traceHeader)
//	B <sender> <origin> <seq> <at>     A-broadcast
//	N <stage> <from> <to> <at> <name>  network lifecycle point
//	F <at> <event>                     fault-plan event applied
//	L <at> <event>                     load-plan event applied
//	D <process> <origin> <seq> <at>    A-delivery
//	T <dropped>                        N records dropped to the buffer bound
//	E <fnv1a digest of the D records>  end of replication
type Trace struct {
	mu   sync.Mutex
	w    io.Writer
	reps map[repKey]*traceRep

	gzipOut  bool
	bufLimit int
}

// TraceOption configures a Trace at construction.
type TraceOption func(*Trace)

// TraceGzip makes Flush gzip-compress its output: each Flush writes one
// gzip member, so appending several runs to one file still yields a valid
// stream. ReplayTrace detects compression automatically, so traces stay
// replayable either way. Long traces are dominated by repetitive N
// records and compress by an order of magnitude.
func TraceGzip() TraceOption { return func(t *Trace) { t.gzipOut = true } }

// TraceBufferLimit bounds each replication's in-memory buffer to roughly
// the given number of bytes: once a replication's buffer reaches the
// limit, further N (network lifecycle) records are dropped and counted,
// and the replication closes with a "T <dropped>" marker. B and D records
// are always kept — they are small, and the D records carry the replay
// digest — so a bounded trace still replays and verifies. Multi-minute
// replications are dominated by N records (tens per message), which is
// what makes the bound effective.
func TraceBufferLimit(bytes int) TraceOption {
	if bytes <= 0 {
		panic(fmt.Sprintf("experiment: TraceBufferLimit(%d) is not positive", bytes))
	}
	return func(t *Trace) { t.bufLimit = bytes }
}

// NewTrace creates a trace exporter writing to w.
func NewTrace(w io.Writer, opts ...TraceOption) *Trace {
	t := &Trace{w: w, reps: make(map[repKey]*traceRep)}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Observer is the ObserverFactory of the exporter: pass it in
// Config.Observers.
func (t *Trace) Observer(point, rep int, cfg Config) Observer {
	r := &traceRep{limit: t.bufLimit}
	hdr := headerFromConfig(cfg, point, rep)
	b, err := json.Marshal(hdr)
	if err != nil {
		// The header is plain numbers and slices; failure is a bug here.
		panic(fmt.Sprintf("experiment: trace header: %v", err))
	}
	r.buf.WriteString("C ")
	r.buf.Write(b)
	r.buf.WriteByte('\n')
	t.mu.Lock()
	t.reps[repKey{point, rep}] = r
	t.mu.Unlock()
	return r
}

// Flush writes every buffered replication to the writer in canonical
// (point, replication) order and drops the buffers. Call it once after
// the run; a Trace can be reused for another run afterwards.
func (t *Trace) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.w
	var gz *gzip.Writer
	if t.gzipOut {
		gz = gzip.NewWriter(t.w)
		w = gz
	}
	for _, k := range t.sortedKeys() {
		r := t.reps[k]
		if _, err := w.Write(r.buf.Bytes()); err != nil {
			return err
		}
		if r.droppedNet > 0 {
			if _, err := fmt.Fprintf(w, "T %d\n", r.droppedNet); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "E %016x\n", r.digest()); err != nil {
			return err
		}
	}
	t.reps = make(map[repKey]*traceRep)
	if gz != nil {
		return gz.Close()
	}
	return nil
}

// Digests returns the delivery digest of every buffered replication in
// canonical (point, replication) order, without flushing.
func (t *Trace) Digests() []TraceDigest {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceDigest, 0, len(t.reps))
	for _, k := range t.sortedKeys() {
		out = append(out, TraceDigest{Point: k.point, Rep: k.rep, Digest: t.reps[k].digest()})
	}
	return out
}

// sortedKeys returns the buffered replication keys in canonical order.
// Callers must hold t.mu.
func (t *Trace) sortedKeys() []repKey {
	keys := make([]repKey, 0, len(t.reps))
	for k := range t.reps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].point != keys[j].point {
			return keys[i].point < keys[j].point
		}
		return keys[i].rep < keys[j].rep
	})
	return keys
}

// TraceDigest names one replication's delivery digest.
type TraceDigest struct {
	Point, Rep int
	Digest     uint64
}

// traceRep buffers one replication's records. It runs on the
// replication's goroutine only; the Trace mutex guards only the registry.
type traceRep struct {
	buf    bytes.Buffer
	dLines bytes.Buffer // delivery records only, the digested subset
	// limit bounds buf: at or past it, N records are dropped and counted
	// instead of appended. Zero means unbounded.
	limit      int
	droppedNet int
}

func (r *traceRep) ObserveBroadcast(b Broadcast) {
	fmt.Fprintf(&r.buf, "B %d %d %d %d\n", b.Sender, b.ID.Origin, b.ID.Seq, int64(b.At))
}

func (r *traceRep) ObserveDelivery(d Delivery) {
	line := fmt.Sprintf("D %d %d %d %d\n", d.Process, d.ID.Origin, d.ID.Seq, int64(d.At))
	r.buf.WriteString(line)
	r.dLines.WriteString(line)
}

func (r *traceRep) ObserveNet(ev netmodel.TraceEvent) {
	if r.limit > 0 && r.buf.Len() >= r.limit {
		r.droppedNet++
		return
	}
	fmt.Fprintf(&r.buf, "N %s %d %d %d %s\n",
		ev.Kind, ev.From, ev.To, int64(ev.At), netmodel.PayloadName(ev.Payload))
}

func (r *traceRep) ObservePlan(at sim.Time, ev PlanEvent) {
	fmt.Fprintf(&r.buf, "F %d %s\n", int64(at), ev)
}

func (r *traceRep) ObserveLoad(at sim.Time, ev LoadEvent) {
	fmt.Fprintf(&r.buf, "L %d %s\n", int64(at), ev)
}

// digest folds the replication's delivery records into FNV-1a.
func (r *traceRep) digest() uint64 {
	h := fnv.New64a()
	h.Write(r.dLines.Bytes())
	return h.Sum64()
}

// traceHeader is the serialisable image of one replication's
// configuration: enough to re-run it. Durations are nanoseconds.
type traceHeader struct {
	Kind            string  `json:"kind"` // "steady" or "transient"
	Point           int     `json:"point"`
	Rep             int     `json:"rep"`
	Algorithm       int     `json:"alg"`
	N               int     `json:"n"`
	Throughput      float64 `json:"throughput"`
	Lambda          float64 `json:"lambda,omitempty"`
	TD              int64   `json:"td,omitempty"`
	TMR             int64   `json:"tmr,omitempty"`
	TM              int64   `json:"tm,omitempty"`
	Crashed         []int   `json:"crashed,omitempty"`
	DisableRenumber bool    `json:"disableRenumber,omitempty"`
	DistSketch      float64 `json:"distSketch,omitempty"`
	Seed            uint64  `json:"seed"`
	Warmup          int64   `json:"warmup"`
	Measure         int64   `json:"measure"`
	Drain           int64   `json:"drain"`
	Replications    int     `json:"replications"`
	HbInterval      int64   `json:"hbInterval,omitempty"`
	HbTimeout       int64   `json:"hbTimeout,omitempty"`
	Crash           int     `json:"crash,omitempty"`
	Sender          int     `json:"sender,omitempty"`
	// Topo is the configuration's topology, as a generator call or a raw
	// graph dump, so topology replications replay from the header alone.
	Topo *topo.Spec `json:"topo,omitempty"`
	// Groups is the configuration's group map, as a generator call or raw
	// member lists, so grouped replications replay from the header alone.
	Groups *groups.Spec `json:"groups,omitempty"`
	// CrossShard is the starting cross-shard traffic fraction (groups
	// mode).
	CrossShard float64 `json:"crossShard,omitempty"`
	// Plan is the configuration's fault plan, flattened one event per
	// entry, so planned replications replay from the header alone.
	Plan []planEventJSON `json:"plan,omitempty"`
	// Load is the configuration's load plan, flattened the same way.
	Load []loadEventJSON `json:"load,omitempty"`
}

// planEventJSON is the flat, kind-tagged image of one PlanEvent.
type planEventJSON struct {
	Kind   string  `json:"kind"`
	At     int64   `json:"at,omitempty"`
	P      int     `json:"p,omitempty"`
	For    int64   `json:"for,omitempty"`
	By     []int   `json:"by,omitempty"`
	Groups [][]int `json:"groups,omitempty"`
	From   int     `json:"from,omitempty"`
	To     int     `json:"to,omitempty"`
	Loss   float64 `json:"loss,omitempty"`
	Delay  int64   `json:"delay,omitempty"`
}

// planToJSON flattens a plan for the trace header. A nil plan yields nil.
func planToJSON(plan *FaultPlan) []planEventJSON {
	if plan == nil {
		return nil
	}
	out := make([]planEventJSON, 0, len(plan.Events))
	for _, ev := range plan.Events {
		var j planEventJSON
		switch e := ev.(type) {
		case Crash:
			j = planEventJSON{Kind: "crash", At: int64(e.At), P: int(e.P)}
		case Recover:
			j = planEventJSON{Kind: "recover", At: int64(e.At), P: int(e.P)}
		case SuspicionBurst:
			j = planEventJSON{Kind: "suspect", At: int64(e.At), P: int(e.P), For: int64(e.For)}
			for _, q := range e.By {
				j.By = append(j.By, int(q))
			}
		case Partition:
			j = planEventJSON{Kind: "partition", At: int64(e.At)}
			j.Groups = make([][]int, len(e.Groups))
			for gi, g := range e.Groups {
				j.Groups[gi] = make([]int, len(g))
				for i, p := range g {
					j.Groups[gi][i] = int(p)
				}
			}
		case Heal:
			j = planEventJSON{Kind: "heal", At: int64(e.At)}
		case LinkFault:
			j = planEventJSON{Kind: "link", At: int64(e.At), From: int(e.From), To: int(e.To),
				Loss: e.Loss, Delay: int64(e.ExtraDelay)}
		case PreCrash:
			j = planEventJSON{Kind: "precrash", P: int(e.P)}
		default:
			panic(fmt.Sprintf("experiment: unknown plan event type %T", ev))
		}
		out = append(out, j)
	}
	return out
}

// planFromJSON rebuilds a plan from its header image. Unknown kinds are
// an error: replaying a trace from a newer writer must fail loudly, not
// silently skip faults.
func planFromJSON(events []planEventJSON) (*FaultPlan, error) {
	if len(events) == 0 {
		return nil, nil
	}
	plan := &FaultPlan{Events: make([]PlanEvent, 0, len(events))}
	for _, j := range events {
		switch j.Kind {
		case "crash":
			plan.Events = append(plan.Events, Crash{At: time.Duration(j.At), P: proto.PID(j.P)})
		case "recover":
			plan.Events = append(plan.Events, Recover{At: time.Duration(j.At), P: proto.PID(j.P)})
		case "suspect":
			e := SuspicionBurst{At: time.Duration(j.At), P: proto.PID(j.P), For: time.Duration(j.For)}
			for _, q := range j.By {
				e.By = append(e.By, proto.PID(q))
			}
			plan.Events = append(plan.Events, e)
		case "partition":
			e := Partition{At: time.Duration(j.At), Groups: make([][]proto.PID, len(j.Groups))}
			for gi, g := range j.Groups {
				e.Groups[gi] = make([]proto.PID, len(g))
				for i, p := range g {
					e.Groups[gi][i] = proto.PID(p)
				}
			}
			plan.Events = append(plan.Events, e)
		case "heal":
			plan.Events = append(plan.Events, Heal{At: time.Duration(j.At)})
		case "link":
			plan.Events = append(plan.Events, LinkFault{At: time.Duration(j.At),
				From: proto.PID(j.From), To: proto.PID(j.To),
				Loss: j.Loss, ExtraDelay: time.Duration(j.Delay)})
		case "precrash":
			plan.Events = append(plan.Events, PreCrash{P: proto.PID(j.P)})
		default:
			return nil, fmt.Errorf("experiment: trace header has unknown plan event kind %q", j.Kind)
		}
	}
	return plan, nil
}

// loadEventJSON is the flat, kind-tagged image of one LoadEvent.
// AllSenders marshals as its literal value, -1.
type loadEventJSON struct {
	Kind     string  `json:"kind"`
	At       int64   `json:"at,omitempty"`
	Sender   int     `json:"sender,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	For      int64   `json:"for,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
}

// loadToJSON flattens a load plan for the trace header. A nil plan yields
// nil.
func loadToJSON(plan *LoadPlan) []loadEventJSON {
	if plan == nil {
		return nil
	}
	out := make([]loadEventJSON, 0, len(plan.Events))
	for _, ev := range plan.Events {
		var j loadEventJSON
		switch e := ev.(type) {
		case RateChange:
			j = loadEventJSON{Kind: "rate", At: int64(e.At), Sender: int(e.Sender), Rate: e.Rate}
		case Burst:
			j = loadEventJSON{Kind: "burst", At: int64(e.At), Sender: int(e.Sender), Factor: e.Factor, For: int64(e.For)}
		case Mute:
			j = loadEventJSON{Kind: "mute", At: int64(e.At), Sender: int(e.Sender)}
		case Unmute:
			j = loadEventJSON{Kind: "unmute", At: int64(e.At), Sender: int(e.Sender)}
		case Pause:
			j = loadEventJSON{Kind: "pause", At: int64(e.At)}
		case Resume:
			j = loadEventJSON{Kind: "resume", At: int64(e.At)}
		case ShardMix:
			j = loadEventJSON{Kind: "shardmix", At: int64(e.At), Fraction: e.Fraction}
		default:
			panic(fmt.Sprintf("experiment: unknown load event type %T", ev))
		}
		out = append(out, j)
	}
	return out
}

// loadFromJSON rebuilds a load plan from its header image. Unknown kinds
// are an error: replaying a trace from a newer writer must fail loudly,
// not silently skip load shaping.
func loadFromJSON(events []loadEventJSON) (*LoadPlan, error) {
	if len(events) == 0 {
		return nil, nil
	}
	plan := &LoadPlan{Events: make([]LoadEvent, 0, len(events))}
	for _, j := range events {
		switch j.Kind {
		case "rate":
			plan.Events = append(plan.Events, RateChange{At: time.Duration(j.At), Sender: proto.PID(j.Sender), Rate: j.Rate})
		case "burst":
			plan.Events = append(plan.Events, Burst{At: time.Duration(j.At), Sender: proto.PID(j.Sender), Factor: j.Factor, For: time.Duration(j.For)})
		case "mute":
			plan.Events = append(plan.Events, Mute{At: time.Duration(j.At), Sender: proto.PID(j.Sender)})
		case "unmute":
			plan.Events = append(plan.Events, Unmute{At: time.Duration(j.At), Sender: proto.PID(j.Sender)})
		case "pause":
			plan.Events = append(plan.Events, Pause{At: time.Duration(j.At)})
		case "resume":
			plan.Events = append(plan.Events, Resume{At: time.Duration(j.At)})
		case "shardmix":
			plan.Events = append(plan.Events, ShardMix{At: time.Duration(j.At), Fraction: j.Fraction})
		default:
			return nil, fmt.Errorf("experiment: trace header has unknown load event kind %q", j.Kind)
		}
	}
	return plan, nil
}

// headerFromConfig captures cfg (already defaulted by the runner) for
// the trace: kind "steady", or kind "transient" with the crash/sender
// pair when the runner marked the config as a transient replication.
func headerFromConfig(cfg Config, point, rep int) traceHeader {
	h := traceHeader{
		Kind:            "steady",
		Point:           point,
		Rep:             rep,
		Algorithm:       int(cfg.Algorithm),
		N:               cfg.N,
		Throughput:      cfg.Throughput,
		Lambda:          cfg.Lambda,
		TD:              int64(cfg.QoS.TD),
		TMR:             int64(cfg.QoS.TMR),
		TM:              int64(cfg.QoS.TM),
		DisableRenumber: cfg.DisableRenumber,
		DistSketch:      cfg.DistSketch,
		Seed:            cfg.Seed,
		Warmup:          int64(cfg.Warmup),
		Measure:         int64(cfg.Measure),
		Drain:           int64(cfg.Drain),
		Replications:    cfg.Replications,
	}
	for _, p := range cfg.Crashed {
		h.Crashed = append(h.Crashed, int(p))
	}
	if cfg.Detector != nil {
		h.HbInterval = int64(cfg.Detector.Interval)
		h.HbTimeout = int64(cfg.Detector.Timeout)
		if h.HbInterval == 0 {
			// Make the default explicit so the header is self-contained.
			h.HbInterval = int64(10 * time.Millisecond)
		}
		if h.HbTimeout == 0 {
			h.HbTimeout = 3 * h.HbInterval
		}
	}
	if cfg.Topology != nil {
		spec := cfg.Topology.Spec()
		h.Topo = &spec
	}
	if cfg.Groups != nil {
		h.Groups = cfg.Groups.Spec()
		h.CrossShard = cfg.CrossShard
	}
	h.Plan = planToJSON(cfg.Plan)
	h.Load = loadToJSON(cfg.Load)
	if ti := cfg.transient; ti != nil {
		h.Kind = "transient"
		h.Crash = int(ti.crash)
		h.Sender = int(ti.sender)
	}
	return h
}

// configFromHeader rebuilds the replication's Config (no observers).
func configFromHeader(h traceHeader) (Config, error) {
	cfg := Config{
		Algorithm:       Algorithm(h.Algorithm),
		N:               h.N,
		Throughput:      h.Throughput,
		Lambda:          h.Lambda,
		DisableRenumber: h.DisableRenumber,
		DistSketch:      h.DistSketch,
		Seed:            h.Seed,
		Warmup:          time.Duration(h.Warmup),
		Measure:         time.Duration(h.Measure),
		Drain:           time.Duration(h.Drain),
		Replications:    h.Replications,
	}
	cfg.QoS.TD = time.Duration(h.TD)
	cfg.QoS.TMR = time.Duration(h.TMR)
	cfg.QoS.TM = time.Duration(h.TM)
	for _, p := range h.Crashed {
		cfg.Crashed = append(cfg.Crashed, proto.PID(p))
	}
	if h.HbInterval != 0 || h.HbTimeout != 0 {
		cfg.Detector = &Heartbeat{
			Interval: time.Duration(h.HbInterval),
			Timeout:  time.Duration(h.HbTimeout),
		}
	}
	if h.Topo != nil {
		t, err := topo.FromSpec(*h.Topo)
		if err != nil {
			return cfg, err
		}
		cfg.Topology = t
	}
	if h.Groups != nil {
		m, err := groups.FromSpec(h.Groups)
		if err != nil {
			return cfg, err
		}
		cfg.Groups = m
		cfg.CrossShard = h.CrossShard
	}
	plan, err := planFromJSON(h.Plan)
	if err != nil {
		return cfg, err
	}
	cfg.Plan = plan
	load, err := loadFromJSON(h.Load)
	if err != nil {
		return cfg, err
	}
	cfg.Load = load
	return cfg, nil
}

// ReplayResult reports one replayed replication.
type ReplayResult struct {
	Point, Rep int
	// Recorded is the delivery digest stored in the trace; Replayed is
	// the digest of the re-run. Match means they agree bit for bit.
	Recorded, Replayed uint64
	Match              bool
}

// Replay re-executes every replication recorded in a trace from its
// embedded configuration and compares the delivery digests. The
// underlying simulations are deterministic, so a mismatch means either
// the trace was edited or the simulator's behaviour changed since the
// trace was recorded. Gzip-compressed traces (TraceGzip) are detected
// automatically.
func Replay(r io.Reader) ([]ReplayResult, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("experiment: gzip trace: %w", err)
		}
		defer gz.Close()
		return replayPlain(gz)
	}
	return replayPlain(br)
}

func replayPlain(r io.Reader) ([]ReplayResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []ReplayResult
	var hdr *traceHeader
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "C "):
			if hdr != nil {
				return out, fmt.Errorf("experiment: trace replication (point %d, rep %d) has no E record", hdr.Point, hdr.Rep)
			}
			var h traceHeader
			if err := json.Unmarshal([]byte(line[2:]), &h); err != nil {
				return out, fmt.Errorf("experiment: bad trace header: %w", err)
			}
			hdr = &h
		case strings.HasPrefix(line, "E "):
			if hdr == nil {
				return out, fmt.Errorf("experiment: E record without a preceding C header")
			}
			var recorded uint64
			if _, err := fmt.Sscanf(line[2:], "%x", &recorded); err != nil {
				return out, fmt.Errorf("experiment: bad digest %q: %w", line[2:], err)
			}
			replayed, err := replayOne(*hdr)
			if err != nil {
				return out, err
			}
			out = append(out, ReplayResult{
				Point:    hdr.Point,
				Rep:      hdr.Rep,
				Recorded: recorded,
				Replayed: replayed,
				Match:    recorded == replayed,
			})
			hdr = nil
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if hdr != nil {
		return out, fmt.Errorf("experiment: trace ends mid-replication (point %d, rep %d)", hdr.Point, hdr.Rep)
	}
	return out, nil
}

// replayOne re-runs a single recorded replication and returns the
// delivery digest of the re-run.
func replayOne(h traceHeader) (uint64, error) {
	cfg, err := configFromHeader(h)
	if err != nil {
		return 0, err
	}
	if err := cfg.validate(); err != nil {
		return 0, fmt.Errorf("experiment: trace header invalid: %w", err)
	}
	rec := &traceRep{}
	cfg.Observers = []ObserverFactory{
		func(int, int, Config) Observer { return rec },
	}
	switch h.Kind {
	case "steady":
		runReplication(cfg, h.Point, h.Rep, newSteadyScenario(cfg))
	case "transient":
		tc := TransientConfig{Config: cfg, Crash: proto.PID(h.Crash), Sender: proto.PID(h.Sender)}
		runReplication(cfg, h.Point, h.Rep, CrashTransient(tc))
	default:
		return 0, fmt.Errorf("experiment: unknown trace kind %q", h.Kind)
	}
	return rec.digest(), nil
}
