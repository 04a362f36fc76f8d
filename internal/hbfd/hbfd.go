// Package hbfd implements a concrete heartbeat failure detector, as an
// alternative to the abstract QoS model of internal/fd.
//
// The paper deliberately models failure detectors only by their QoS
// metrics (§6.2): "one approach to modeling a failure detector is to use a
// specific failure detection algorithm and model all its messages.
// However, this approach would restrict the generality of our study."
// This package is that other approach, provided as an extension: every
// process multicasts a heartbeat every Interval, and a monitor suspects a
// peer after Timeout without one. Heartbeats travel through the same
// contention-aware network as protocol messages, so the detector exhibits
// the real trade-off the QoS metrics abstract away — aggressive timeouts
// give small detection times TD but generate wrong suspicions (finite
// TMR) when load delays heartbeats, exactly the tuning question of the
// paper's reference [17].
//
// The detector wraps a protocol handler: heartbeat traffic is consumed
// transparently, suspicion edges are injected into the inner handler, and
// the inner protocol's Runtime.Suspects consults the heartbeat state
// instead of the system's modelled detectors (configure those with a
// zero QoS so they stay silent).
package hbfd

import (
	"time"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Msg is a heartbeat. The sender is carried by the envelope.
type Msg struct{}

// Config tunes the detector.
type Config struct {
	// Interval is the heartbeat period. Zero selects 10 ms.
	Interval time.Duration
	// Timeout is the silence after which a peer is suspected. Zero
	// selects 3x the interval.
	Timeout time.Duration
}

const defaultInterval = 10 * time.Millisecond

// WithDefaults returns the tuning the detector actually runs with: zero
// fields replaced by their defaults. Only zero selects a default:
// experiment.CoreConfig.Validate rejects a negative field.
func (c Config) WithDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = defaultInterval
	}
	if c.Timeout <= 0 {
		c.Timeout = 3 * c.Interval
	}
	return c
}

// Wrapper runs a heartbeat detector around an inner protocol handler.
type Wrapper struct {
	rt    proto.Runtime
	cfg   Config
	inner proto.Handler

	lastBeat  []sim.Time
	suspected []bool

	// The beat and check loops, each one timer record re-armed as it
	// fires. They stay two timers: a merged tick would change the order
	// of a check against a heartbeat received in the same instant.
	beatTimer, checkTimer *proto.Alarm

	// Counters for analysis.
	wrongSuspicions int
	suspicions      int
}

var _ proto.Runtime = (*runtime)(nil)

// runtime overrides Suspects with the heartbeat state.
type runtime struct {
	proto.Runtime
	w *Wrapper
}

func (r *runtime) Suspects(p proto.PID) bool { return r.w.suspected[p] }

// Wrap builds the wrapper: it allocates, builds the inner protocol with
// makeInner against the wrapped runtime (whose Suspects consults
// heartbeats), then calls Reset.
func Wrap(rt proto.Runtime, cfg Config, makeInner func(proto.Runtime) proto.Handler) *Wrapper {
	w := &Wrapper{
		rt:        rt,
		lastBeat:  make([]sim.Time, rt.N()),
		suspected: make([]bool, rt.N()),
	}
	w.beatTimer = rt.NewAlarm(w.beat)
	w.checkTimer = rt.NewAlarm(w.check)
	w.inner = makeInner(&runtime{Runtime: rt, w: w})
	if w.inner == nil {
		panic("hbfd: makeInner returned nil")
	}
	w.Reset(cfg)
	return w
}

// Reset returns w to the state Wrap(rt, cfg, …) leaves a new wrapper in,
// on w's own runtime, around w's own inner handler (which the caller
// resets itself) and with the alarms it keeps; the engine's reset dropped
// whatever they had pending. Suspicions and counters start at zero.
func (w *Wrapper) Reset(cfg Config) {
	clear(w.lastBeat)
	clear(w.suspected)
	*w = Wrapper{
		rt:         w.rt,
		cfg:        cfg.WithDefaults(),
		inner:      w.inner,
		lastBeat:   w.lastBeat,
		suspected:  w.suspected,
		beatTimer:  w.beatTimer,
		checkTimer: w.checkTimer,
	}
}

// Inner returns the wrapped protocol handler.
func (w *Wrapper) Inner() proto.Handler { return w.inner }

// Suspicions returns the total number of suspicion edges raised; wrong
// suspicions (the target had not crashed... indistinguishable locally) are
// those later withdrawn by a trust edge.
func (w *Wrapper) Suspicions() (total, withdrawn int) {
	return w.suspicions, w.wrongSuspicions
}

// Init implements proto.Handler: start the beat and check loops, then the
// inner protocol. Restart starts them: a new or reset wrapper has no
// pending alarm for it to cancel.
func (w *Wrapper) Init() {
	w.Restart()
	w.inner.Init()
}

// Restart re-arms the beat and check loops after the wrapped process
// recovers from a crash: the runtime's crash guard kills the loops the
// first time a tick fires while crashed, so a resumed process would
// otherwise stay silent and be suspected forever. A loop that survived a
// short crash window is cancelled first, so neither loop runs twice. Every
// peer gets a fresh grace period; standing suspicions are kept and
// withdrawn by the next heartbeat of each live peer.
func (w *Wrapper) Restart() {
	w.beatTimer.Cancel()
	w.checkTimer.Cancel()
	now := w.rt.Now()
	for p := range w.lastBeat {
		w.lastBeat[p] = now
	}
	w.beat()
	w.armCheck()
}

// beat multicasts one heartbeat and re-arms.
func (w *Wrapper) beat() {
	w.rt.Multicast(Msg{})
	w.beatTimer.Arm(w.cfg.Interval)
}

// armCheck schedules the next silence scan.
func (w *Wrapper) armCheck() { w.checkTimer.Arm(w.cfg.Interval) }

// check scans for silent peers and re-arms. Trust edges fire from
// heartbeat receipt, not from here.
func (w *Wrapper) check() {
	now := w.rt.Now()
	for p := range w.lastBeat {
		if proto.PID(p) == w.rt.ID() || w.suspected[p] {
			continue
		}
		if now.Sub(w.lastBeat[p]) > w.cfg.Timeout {
			w.suspected[p] = true
			w.suspicions++
			w.inner.OnSuspect(proto.PID(p))
		}
	}
	w.armCheck()
}

// OnMessage implements proto.Handler: heartbeat traffic is absorbed,
// everything else passes through.
func (w *Wrapper) OnMessage(from proto.PID, payload any) {
	if _, isBeat := payload.(Msg); isBeat {
		w.lastBeat[from] = w.rt.Now()
		if w.suspected[from] {
			// The peer is alive after all: withdraw the suspicion.
			w.suspected[from] = false
			w.wrongSuspicions++
			w.inner.OnTrust(from)
		}
		return
	}
	w.inner.OnMessage(from, payload)
}

// OnSuspect implements proto.Handler: edges from the system's modelled
// detectors are ignored — this wrapper replaces them.
func (w *Wrapper) OnSuspect(proto.PID) {}

// OnTrust implements proto.Handler: ignored, as above.
func (w *Wrapper) OnTrust(proto.PID) {}
