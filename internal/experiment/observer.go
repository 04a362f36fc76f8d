package experiment

import (
	"sort"
	"sync"

	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Broadcast records one A-broadcast issued during a replication: the
// counterpart of Delivery on the sending side.
type Broadcast struct {
	Sender proto.PID
	ID     proto.MsgID
	At     sim.Time
}

// Observer receives a replication's observable events. The replication
// pipeline (runReplication) runs the workload and the faults and measures
// the awaited messages' latency; observers attach everything else —
// latency distributions, trace export, anything event-driven — to any
// point of either kind without touching it. Config.Observers lists the
// factories; the pipeline builds one instance per replication from each
// and calls them in that order, for every A-delivery and for whichever of
// BroadcastObserver, NetObserver, PlanObserver and LoadObserver the
// instance also implements.
//
// Observer instances are confined to their replication (one goroutine);
// anything shared across replications must synchronise, and anything
// aggregated across replications must merge in canonical (point,
// replication) order to keep results bit-identical at any worker count —
// repRegistry is that half, shared by LatencyDist and Trace.
type Observer interface {
	// ObserveDelivery is invoked for every A-delivery at every process.
	ObserveDelivery(d Delivery)
}

// BroadcastObserver is implemented by observers that also want the
// sending side of every message.
type BroadcastObserver interface {
	// ObserveBroadcast is invoked for every A-broadcast of the replication
	// — the workload's and the crash-transient probe — as it is issued.
	ObserveBroadcast(b Broadcast)
}

// NetObserver is implemented by observers that also want the network
// model's message lifecycle points (send, wire, deliver, drop). The
// pipeline installs netmodel's tracer only when at least one observer of a
// replication asks for it, so replications without a NetObserver pay
// nothing.
type NetObserver interface {
	// ObserveNet is invoked at every message lifecycle point.
	ObserveNet(ev netmodel.TraceEvent)
}

// PlanObserver is implemented by observers that also want the fault
// plan's events — scripted crashes included — at the instants they apply.
// Processes crashed from the start (Config.Crashed) are configuration,
// not events, and are not observed.
type PlanObserver interface {
	// ObservePlan is invoked when a plan event applies.
	ObservePlan(at sim.Time, ev PlanEvent)
}

// LoadObserver is implemented by observers that also want the load
// plan's events at the instants they apply. Only plan (and interactively
// scheduled) events are observed, not their internal continuations: a
// Burst is one event, observed when the spike starts.
type LoadObserver interface {
	// ObserveLoad is invoked when a load event applies.
	ObserveLoad(at sim.Time, ev LoadEvent)
}

// ObserverFactory builds one observer instance for one replication.
// point is the index of the replication's config within the executed
// batch — a Sweep's canonical point order, a SteadyAll/TransientAll slice
// index, or 0 for single-point runs — and rep is the replication index
// within that point. Returning nil attaches nothing to the replication.
type ObserverFactory func(point, rep int, cfg Config) Observer

// repKey addresses one replication of one point in an observer's
// cross-replication state.
type repKey struct{ point, rep int }

// repRegistry is the cross-replication half of an observer: replications
// register their private instance from whatever goroutine runs them, and
// the owner reads the instances back in canonical (point, replication)
// order — what keeps its output bit-identical at any worker count. The
// zero value is empty and ready.
type repRegistry[T any] struct {
	mu   sync.Mutex
	reps map[repKey]T
}

// repInstance is one registered instance under its key.
type repInstance[T any] struct {
	repKey
	v T
}

func (g *repRegistry[T]) register(point, rep int, v T) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.reps == nil {
		g.reps = make(map[repKey]T)
	}
	g.reps[repKey{point, rep}] = v
}

// sorted returns the registered instances in canonical order.
func (g *repRegistry[T]) sorted() []repInstance[T] {
	g.mu.Lock()
	out := make([]repInstance[T], 0, len(g.reps))
	for k, v := range g.reps {
		out = append(out, repInstance[T]{k, v})
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].point != out[j].point {
			return out[i].point < out[j].point
		}
		return out[i].rep < out[j].rep
	})
	return out
}

// drop empties the registry.
func (g *repRegistry[T]) drop() {
	g.mu.Lock()
	g.reps = nil
	g.mu.Unlock()
}

// LatencyDist is a cross-cutting observer measuring the latency from
// every A-broadcast to its earliest A-delivery on any process, pooled
// per point into mergeable collectors. Unlike Result.Dist — which holds
// only the messages of the measurement window — LatencyDist sees every
// broadcast of the replication, warmup and drain included, and it
// composes with any scenario (the crash-transient scenario measures a
// single probe; attach a LatencyDist to see the background traffic's
// distribution around the crash).
//
// Attach it by appending its Observer method to Config.Observers: each
// replication gets a private instance, and per-replication collectors
// merge in canonical (point, replication) order on every read, so the
// reported distributions are bit-identical at any Runner.Workers count.
//
// One LatencyDist accumulates one run: point indices restart at 0 for
// every Runner call, so reusing the observer across runs would overwrite
// colliding (point, replication) slots. Use a fresh LatencyDist per run.
type LatencyDist struct {
	reps repRegistry[*latencyDistRep]
}

// NewLatencyDist creates an empty distribution observer.
func NewLatencyDist() *LatencyDist { return &LatencyDist{} }

// Observer is the ObserverFactory of the distribution: pass it in
// Config.Observers.
func (l *LatencyDist) Observer(point, rep int, cfg Config) Observer {
	// The collector inherits the config's DistSketch mode, so sketch-mode
	// sweeps keep their per-point observers O(sketch) too.
	r := &latencyDistRep{sent: make(map[proto.MsgID]sim.Time), lat: cfg.newDistCollector()}
	l.reps.register(point, rep, r)
	return r
}

// Dist returns the point's pooled latency distribution (milliseconds),
// merged in replication order. Call it after the run; a point that was
// never observed returns an empty collector.
func (l *LatencyDist) Dist(point int) stats.Collector {
	var out stats.Collector
	for _, r := range l.reps.sorted() {
		if r.point == point {
			out.Merge(&r.v.lat)
		}
	}
	return out
}

// Quantiles snapshots the point's order statistics (P50/P90/P99).
func (l *LatencyDist) Quantiles(point int) stats.Quantiles {
	d := l.Dist(point)
	return d.Quantiles()
}

// Points lists the point indices observed so far, ascending.
func (l *LatencyDist) Points() []int {
	out := []int{}
	for _, r := range l.reps.sorted() {
		if len(out) == 0 || out[len(out)-1] != r.point {
			out = append(out, r.point)
		}
	}
	return out
}

// latencyDistRep is the per-replication instance: single-goroutine, no
// locking on the event path.
type latencyDistRep struct {
	sent map[proto.MsgID]sim.Time
	lat  stats.Collector
}

func (r *latencyDistRep) ObserveBroadcast(b Broadcast) { r.sent[b.ID] = b.At }

func (r *latencyDistRep) ObserveDelivery(d Delivery) {
	if t0, ok := r.sent[d.ID]; ok {
		r.lat.Add(d.At.Sub(t0).Seconds() * 1000) // milliseconds, like RepStats
		delete(r.sent, d.ID)                     // only the earliest delivery counts
	}
}
