package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"repro/internal/fd"
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
//	E <fnv1a digest of the D records>  end of replication
type Trace struct {
	w    io.Writer
	reps repRegistry[*traceRep]
}

// NewTrace creates a trace exporter writing to w.
func NewTrace(w io.Writer) *Trace { return &Trace{w: w} }

// Observer is the ObserverFactory of the exporter: pass it in
// Config.Observers.
func (t *Trace) Observer(point, rep int, cfg Config) Observer {
	r := newTraceRep()
	b, err := json.Marshal(headerFromConfig(cfg, point, rep))
	if err != nil {
		// The header is plain numbers and slices; failure is a bug here.
		panic(fmt.Sprintf("experiment: trace header: %v", err))
	}
	r.buf.WriteString("C ")
	r.buf.Write(b)
	r.buf.WriteByte('\n')
	t.reps.register(point, rep, r)
	return r
}

// Flush writes every buffered replication to the writer in canonical
// (point, replication) order and drops the buffers. Call it once after
// the run; a Trace can be reused for another run afterwards.
func (t *Trace) Flush() error {
	for _, r := range t.reps.sorted() {
		if _, err := t.w.Write(r.v.buf.Bytes()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(t.w, "E %016x\n", r.v.sum.Sum64()); err != nil {
			return err
		}
	}
	t.reps.drop()
	return nil
}

// Digests returns the delivery digest of every buffered replication in
// canonical (point, replication) order, without flushing.
func (t *Trace) Digests() []TraceDigest {
	out := []TraceDigest{}
	for _, r := range t.reps.sorted() {
		out = append(out, TraceDigest{Point: r.point, Rep: r.rep, Digest: r.v.sum.Sum64()})
	}
	return out
}

// TraceDigest names one replication's delivery digest.
type TraceDigest struct {
	Point, Rep int
	Digest     uint64
}

// traceRep buffers one replication's records. It runs on the
// replication's goroutine only; the Trace mutex guards only the registry.
type traceRep struct {
	buf bytes.Buffer
	// sum is the running FNV-1a of the delivery (D) records, the digested
	// subset; reading it (Sum64) does not consume it.
	sum hash.Hash64
}

func newTraceRep() *traceRep { return &traceRep{sum: fnv.New64a()} }

func (r *traceRep) ObserveBroadcast(b Broadcast) {
	fmt.Fprintf(&r.buf, "B %d %d %d %d\n", b.Sender, b.ID.Origin, b.ID.Seq, int64(b.At))
}

func (r *traceRep) ObserveDelivery(d Delivery) {
	start := r.buf.Len()
	fmt.Fprintf(&r.buf, "D %d %d %d %d\n", d.Process, d.ID.Origin, d.ID.Seq, int64(d.At))
	r.sum.Write(r.buf.Bytes()[start:])
}

func (r *traceRep) ObserveNet(ev netmodel.TraceEvent) {
	fmt.Fprintf(&r.buf, "N %s %d %d %d %s\n",
		ev.Kind, ev.From, ev.To, int64(ev.At), netmodel.PayloadName(ev.Payload))
}

func (r *traceRep) ObservePlan(at sim.Time, ev PlanEvent) {
	fmt.Fprintf(&r.buf, "F %d %s\n", int64(at), ev)
}

func (r *traceRep) ObserveLoad(at sim.Time, ev LoadEvent) {
	fmt.Fprintf(&r.buf, "L %d %s\n", int64(at), ev)
}

// traceHeader is the serialisable image of one replication's
// configuration: enough to re-run it. Durations are nanoseconds.
type traceHeader struct {
	Kind            string        `json:"kind"` // "steady" or "transient"
	Point           int           `json:"point"`
	Rep             int           `json:"rep"`
	Algorithm       Algorithm     `json:"alg"`
	N               int           `json:"n"`
	Throughput      float64       `json:"throughput"`
	Lambda          float64       `json:"lambda,omitempty"`
	TD              time.Duration `json:"td,omitempty"`
	TMR             time.Duration `json:"tmr,omitempty"`
	TM              time.Duration `json:"tm,omitempty"`
	Crashed         []proto.PID   `json:"crashed,omitempty"`
	DisableRenumber bool          `json:"disableRenumber,omitempty"`
	Seed            uint64        `json:"seed"`
	Warmup          time.Duration `json:"warmup"`
	Measure         time.Duration `json:"measure"`
	Drain           time.Duration `json:"drain"`
	Replications    int           `json:"replications"`
	HbInterval      time.Duration `json:"hbInterval,omitempty"`
	HbTimeout       time.Duration `json:"hbTimeout,omitempty"`
	Crash           proto.PID     `json:"crash,omitempty"`
	Sender          proto.PID     `json:"sender,omitempty"`
	// Topo is the configuration's topology, as a generator call or a raw
	// graph dump, so topology replications replay from the header alone.
	Topo *topo.Spec `json:"topo,omitempty"`
	// Groups is the configuration's group map, as a generator call or raw
	// member lists, so grouped replications replay from the header alone.
	Groups *groups.Spec `json:"groups,omitempty"`
	// CrossShard is the starting cross-shard traffic fraction (groups
	// mode).
	CrossShard float64 `json:"crossShard,omitempty"`
	// Plan and Load are the configuration's fault and load plans, one
	// kind-tagged object per event (encodeEvents), so planned replications
	// replay from the header alone.
	Plan []json.RawMessage `json:"plan,omitempty"`
	Load []json.RawMessage `json:"load,omitempty"`
}

// planKinds and loadKinds map each event kind a trace header can carry to
// the decoder of its type. They are the only lists of event types:
// everything else about an event is stated beside its type.
var (
	planKinds = map[string]func([]byte) (PlanEvent, error){
		"crash":     decodeAs[Crash, PlanEvent],
		"recover":   decodeAs[Recover, PlanEvent],
		"suspect":   decodeAs[SuspicionBurst, PlanEvent],
		"partition": decodeAs[Partition, PlanEvent],
		"heal":      decodeAs[Heal, PlanEvent],
		"link":      decodeAs[LinkFault, PlanEvent],
	}
	loadKinds = map[string]func([]byte) (LoadEvent, error){
		"rate":   decodeAs[RateChange, LoadEvent],
		"burst":  decodeAs[Burst, LoadEvent],
		"mute":   decodeAs[Mute, LoadEvent],
		"unmute": decodeAs[Unmute, LoadEvent],
		"pause":  decodeAs[Pause, LoadEvent],
		"resume": decodeAs[Resume, LoadEvent],
	}
)

// decodeAs decodes a header object into event type T, through T's own
// JSON tags, as a member of the closed set E.
func decodeAs[T any, E event](raw []byte) (E, error) {
	var ev T
	err := json.Unmarshal(raw, &ev)
	return any(ev).(E), err
}

// encodeEvents renders a timeline for the trace header: each event
// marshals itself, and its kind is spliced in front of its own object. A
// timeline without events yields nil, which the header omits.
func encodeEvents[E event](events []E, kind func(E) string) []json.RawMessage {
	var out []json.RawMessage
	for _, ev := range events {
		body, err := json.Marshal(ev)
		if err != nil {
			// Events are plain numbers and slices; failure is a bug here.
			panic(fmt.Sprintf("experiment: trace header: %v", err))
		}
		head := `{"kind":"` + kind(ev) + `"`
		if len(body) > len("{}") {
			head += ","
		}
		out = append(out, json.RawMessage(head+string(body[1:])))
	}
	return out
}

// decodeEvents rebuilds a timeline (what: "plan" or "load") from its
// header image. Unknown kinds are an error: replaying a trace from a newer
// writer must fail loudly, not silently skip faults or load shaping.
func decodeEvents[E event](what string, raws []json.RawMessage, kinds map[string]func([]byte) (E, error)) ([]E, error) {
	var out []E
	for _, raw := range raws {
		var tag struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("experiment: trace header %s event: %w", what, err)
		}
		decode, ok := kinds[tag.Kind]
		if !ok {
			return nil, fmt.Errorf("experiment: trace header has unknown %s event kind %q", what, tag.Kind)
		}
		ev, err := decode(raw)
		if err != nil {
			return nil, fmt.Errorf("experiment: trace header %s event %q: %w", what, tag.Kind, err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// headerFromConfig captures cfg (already defaulted by the runner) for
// the trace: kind "steady", or kind "transient" with the crash/sender
// pair when the runner marked the config as a transient replication.
func headerFromConfig(cfg Config, point, rep int) traceHeader {
	h := traceHeader{
		Kind:            "steady",
		Point:           point,
		Rep:             rep,
		Algorithm:       cfg.Algorithm,
		N:               cfg.N,
		Throughput:      cfg.Throughput,
		Lambda:          cfg.Lambda,
		TD:              cfg.QoS.TD,
		TMR:             cfg.QoS.TMR,
		TM:              cfg.QoS.TM,
		Crashed:         cfg.Crashed,
		DisableRenumber: cfg.DisableRenumber,
		Seed:            cfg.Seed,
		Warmup:          cfg.Warmup,
		Measure:         cfg.Measure,
		Drain:           cfg.Drain,
		Replications:    cfg.Replications,
		Plan:            encodeEvents(orEmpty(cfg.Plan).Events, PlanEvent.planEvent),
		Load:            encodeEvents(orEmpty(cfg.Load).Events, LoadEvent.loadEvent),
	}
	if cfg.Detector != nil {
		// Make the defaults explicit so the header is self-contained.
		hb := cfg.Detector.WithDefaults()
		h.HbInterval, h.HbTimeout = hb.Interval, hb.Timeout
	}
	if cfg.Topology != nil {
		spec := cfg.Topology.Spec()
		h.Topo = &spec
	}
	if cfg.Groups != nil {
		h.Groups = cfg.Groups.Spec()
		h.CrossShard = cfg.CrossShard
	}
	if ti := cfg.transient; ti != nil {
		h.Kind, h.Crash, h.Sender = "transient", ti.crash, ti.sender
	}
	return h
}

// configFromHeader rebuilds the replication's Config (no observers).
func configFromHeader(h traceHeader) (Config, error) {
	cfg := Config{
		Algorithm:       h.Algorithm,
		N:               h.N,
		Throughput:      h.Throughput,
		Lambda:          h.Lambda,
		QoS:             fd.QoS{TD: h.TD, TMR: h.TMR, TM: h.TM},
		Crashed:         h.Crashed,
		DisableRenumber: h.DisableRenumber,
		Seed:            h.Seed,
		Warmup:          h.Warmup,
		Measure:         h.Measure,
		Drain:           h.Drain,
		Replications:    h.Replications,
	}
	if h.HbInterval != 0 || h.HbTimeout != 0 {
		cfg.Detector = &Heartbeat{Interval: h.HbInterval, Timeout: h.HbTimeout}
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
	plan, err := decodeEvents("plan", h.Plan, planKinds)
	if err != nil {
		return cfg, err
	}
	load, err := decodeEvents("load", h.Load, loadKinds)
	if err != nil {
		return cfg, err
	}
	// A header without events reads back as a nil plan: it was recorded
	// from one, or from an empty one, which runs identically.
	if plan != nil {
		cfg.Plan = &FaultPlan{Events: plan}
	}
	if load != nil {
		cfg.Load = &LoadPlan{Events: load}
	}
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
// trace was recorded. Lines that are neither a C nor an E record are not
// needed to re-run and are skipped.
func Replay(r io.Reader) ([]ReplayResult, error) {
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
	cfg, err := scenarioFromHeader(h)
	if err != nil {
		return 0, err
	}
	rec := newTraceRep()
	cfg.Observers = []ObserverFactory{
		func(int, int, Config) Observer { return rec },
	}
	runReplication(cfg, h.Point, h.Rep)
	return rec.sum.Sum64(), nil
}

// scenarioFromHeader rebuilds what a header recorded — the configuration,
// of the kind it names — and validates it as the Runner would have: a
// header is input, so everything wrong with it is an error here and
// nothing is left to panic in the run.
func scenarioFromHeader(h traceHeader) (Config, error) {
	cfg, err := configFromHeader(h)
	if err != nil {
		return cfg, err
	}
	switch h.Kind {
	case "steady":
	case "transient":
		cfg.transient = &transientInfo{crash: h.Crash, sender: h.Sender}
	default:
		return cfg, fmt.Errorf("experiment: unknown trace kind %q", h.Kind)
	}
	if err := cfg.validate(); err != nil {
		return cfg, fmt.Errorf("experiment: trace header invalid: %w", err)
	}
	return cfg, nil
}
