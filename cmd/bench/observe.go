package main

import (
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// layer names the package a network payload belongs to.
type layer int

const (
	layOther layer = iota
	layRbcast
	layConsensus
	layCatchUp
	laySeqabcast
	layGM
	layHeartbeat
	layRouter
	numLayers
)

// payloadKind reduces a netmodel.PayloadName to its kind: a group envelope
// "g3{...}" is stripped and the rest is cut at the first of "[ @}", so
// "g0{MsgAck[k=7]}" and "MsgAck[k=9]" are both "MsgAck" and
// "tsprop 1:4 g0@9" is "tsprop". k is the consensus instance number the
// name carries, or 0.
func payloadKind(name string) (kind string, k int) {
	if len(name) > 1 && name[0] == 'g' {
		if i := strings.IndexByte(name, '{'); i > 0 {
			if _, err := strconv.Atoi(name[1:i]); err == nil {
				name = name[i+1:]
			}
		}
	}
	end := strings.IndexAny(name, "[ @}")
	if end < 0 {
		return name, 0
	}
	if rest := name[end:]; strings.HasPrefix(rest, "[k=") {
		if j := strings.IndexByte(rest, ']'); j > 0 {
			k, _ = strconv.Atoi(rest[3:j])
		}
	}
	return name[:end], k
}

func layerOf(kind string) layer {
	switch {
	case kind == "rbcast.Msg":
		return layRbcast
	case kind == "hbfd.Msg":
		return layHeartbeat
	case strings.HasPrefix(kind, "CatchUp"):
		return layCatchUp
	case strings.HasPrefix(kind, "Msg"):
		return layConsensus
	case strings.HasPrefix(kind, "seqabcast."):
		return laySeqabcast
	case strings.HasPrefix(kind, "gm."):
		return layGM
	}
	switch kind {
	case "mgram", "tsprop", "tsreq", "tsfinal", "advance":
		return layRouter
	}
	return layOther
}

// repObs observes one replication of a checked pass through the hooks the
// experiment layer offers: it feeds the specification checker and counts
// network events where they happen.
type repObs struct {
	point int
	cfg   repro.Config
	// start is where the replication's construct span begins (the end of
	// the previous replication, or the pass start); built is the observer
	// factory call, which the experiment layer makes right after it has
	// built the cluster.
	start, built time.Time

	spec       *specChecker
	broadcasts int
	// sends counts TraceSend by payload kind. The name is read inside the
	// callback because payloads are pooled.
	sends                 map[string]int
	wires, delivers, lost int
	instances             int // highest consensus instance number seen
	firstWire, lastWire   sim.Time
}

func (o *repObs) ObserveBroadcast(b repro.ObservedBroadcast) {
	o.broadcasts++
	o.spec.broadcast(b.ID)
}

func (o *repObs) ObserveDelivery(d repro.ObservedDelivery) {
	o.spec.deliver(int(d.Process), d.ID)
}

func (o *repObs) ObserveNet(ev netmodel.TraceEvent) {
	switch ev.Kind {
	case netmodel.TraceSend:
		kind, k := payloadKind(netmodel.PayloadName(ev.Payload))
		o.sends[kind]++
		if k > o.instances {
			o.instances = k
		}
	case netmodel.TraceWire:
		if o.wires == 0 {
			o.firstWire = ev.At
		}
		o.wires++
		o.lastWire = ev.At
	case netmodel.TraceDeliver:
		o.delivers++
	case netmodel.TraceDrop:
		o.lost++
	}
}

// ObservePlan starts a fresh incarnation in the checker when a GM process
// recovers: it rejoins with state transfer and delivers the prefix again.
func (o *repObs) ObservePlan(_ sim.Time, ev repro.PlanEvent) {
	if r, ok := ev.(repro.Recover); ok && o.cfg.Algorithm != repro.FD {
		o.spec.restart(int(r.P))
	}
}

// classAgg sums the replications of one class of points.
type classAgg struct {
	broadcasts, instances int
	sends                 [numLayers]int
}

func (c *classAgg) add(o *repObs) {
	c.broadcasts += o.broadcasts
	c.instances += o.instances
	for kind, n := range o.sends {
		c.sends[layerOf(kind)] += n
	}
}

func (c *classAgg) totalSends() int {
	sum := 0
	for _, n := range c.sends {
		sum += n
	}
	return sum
}

// traceAgg is what the checked passes of one workload add up to.
type traceAgg struct {
	replications                 int
	broadcasts                   int
	sends, wires, delivers, lost int
	sendsByKind                  map[string]int
	// Classes of points: FD and GM without groups, points on the
	// heartbeat detector, grouped points without and with cross-shard
	// traffic. A point can be in several.
	fd, gm, heartbeat, local, cross classAgg
	// busySlots and busySpan describe the workload's busyPoint: wire
	// events and the virtual time between the first and the last.
	busySlots int
	busySpan  time.Duration

	construct, simulate time.Duration
	passMs, mergeMs     []float64

	violations     int
	firstViolation []string
	// failedMsgs counts the broadcasts of replications that fail the
	// specification check.
	failedMsgs int
}

func (a *traceAgg) add(o *repObs, busyPoint int) {
	a.replications++
	a.broadcasts += o.broadcasts
	a.wires += o.wires
	a.delivers += o.delivers
	a.lost += o.lost
	for kind, n := range o.sends {
		a.sends += n
		a.sendsByKind[kind] += n
	}
	grouped := o.cfg.Groups != nil
	switch {
	case grouped && o.cfg.CrossShard > 0:
		a.cross.add(o)
	case grouped:
		a.local.add(o)
	case o.cfg.Algorithm == repro.FD:
		a.fd.add(o)
	case o.cfg.Algorithm == repro.GM:
		a.gm.add(o)
	}
	if o.cfg.Detector != nil {
		a.heartbeat.add(o)
	}
	if o.point == busyPoint {
		a.busySlots += o.wires
		a.busySpan += o.lastWire.Sub(o.firstWire)
	}
}

// tracer turns the Runner's public hooks into spans. At Workers 1
// consecutive Progress callbacks bracket one replication, the observer
// factory call inside it marks the end of construct, and the last
// Progress to the return of SteadyAll is the merge.
type tracer struct {
	log       *spanLog
	agg       *traceAgg
	busyPoint int
	// inject plants one fault in the first replication's event stream, so
	// that the command can be seen to fail: "dup", "order" or "phantom".
	inject string

	passSpan, passID int
	mark             time.Time // end of the previous replication
	cur              *repObs
}

func (t *tracer) beginPass(passSpan, passID int, now time.Time) {
	t.passSpan, t.passID, t.mark = passSpan, passID, now
}

// observer is the ObserverFactory of the checked passes.
func (t *tracer) observer(point, _ int, cfg repro.Config) repro.Observer {
	t.cur = &repObs{
		point: point,
		cfg:   cfg,
		start: t.mark,
		built: time.Now(),
		spec:  newSpecChecker(cfg.N),
		sends: make(map[string]int),
	}
	return t.cur
}

// progress closes the replication the last factory call opened.
func (t *tracer) progress(_, _ int) {
	end := time.Now()
	o := t.cur
	rep := t.log.add("replication", t.passSpan, t.passID, o.start, end)
	t.log.add("construct", rep, t.passID, o.start, o.built)
	t.log.add("simulate", rep, t.passID, o.built, end)
	t.agg.construct += o.built.Sub(o.start)
	t.agg.simulate += end.Sub(o.built)

	if t.inject != "" {
		plant(o.spec, t.inject)
		t.inject = ""
	}
	if n := o.spec.finish(); n > 0 {
		t.agg.violations += n
		t.agg.failedMsgs += o.broadcasts
		if len(t.agg.firstViolation) == 0 {
			t.agg.firstViolation = o.spec.violations
		}
	}
	t.agg.add(o, t.busyPoint)
	// The check is the benchmark's own cost: keep it out of the next
	// replication's construct span.
	t.mark = time.Now()
	t.log.add("check", t.passSpan, t.passID, end, t.mark)
}

// plant feeds the checker one event that breaks the specification.
func plant(c *specChecker, fault string) {
	switch fault {
	case "dup":
		c.deliver(0, c.idAt(0, 0))
	case "order":
		a, b := c.idAt(0, 0), c.idAt(0, 1)
		c.restart(1)
		c.deliver(1, b)
		c.deliver(1, a)
	case "phantom":
		c.deliver(0, repro.MessageID{Origin: 0, Seq: 1 << 62})
	}
}
