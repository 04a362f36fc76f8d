package groups

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Tunables of the cross-group machinery (virtual time, so deterministic).
const (
	// initFallback staggers redundant initiations of a message inside a
	// destination group that does not contain the sender: the lowest
	// member a-broadcasts the message into the group immediately on
	// receiving the dissemination gram, member k only after k·initFallback
	// if the message still has not been group-delivered — crash cover
	// without duplicate traffic in the common case (duplicates that do
	// slip through are absorbed by per-group dedup).
	initFallback = 200 * time.Millisecond
	// stallRetry is the re-probe interval for a head-of-queue message
	// whose final timestamp is missing — normally the proposals arrive
	// with the protocol traffic, and the retry only acts after crashes or
	// a recovery replay, by asking the destination groups' members again.
	stallRetry = 250 * time.Millisecond
)

// Endpoint is one group's protocol instance: the outermost handler (e.g.
// a heartbeat-detector wrapper), the a-broadcast entry point, and optional
// recovery hooks. The Router never calls the hooks; whoever recovers the
// process does. The coordinator's one instance hook (NewCoordinator)
// builds an instance into the zero Endpoint and resets a built one in
// place.
type Endpoint struct {
	Handler proto.Handler
	// ABroadcast submits a body to the group's atomic broadcast.
	ABroadcast func(body any) proto.MsgID
	// Resume, when set, arms the instance's catch-up probe (the FD
	// stack's decision-log recovery) after a recovery or heal.
	Resume func()
	// Restart, when set, restarts the instance's failure detector (the
	// heartbeat wrapper) after a recovery.
	Restart func()
}

// InstanceConfig is what the coordinator's instance hook receives to
// build, or reset, one process's protocol instance for one group. The
// instance runs in the group's local id space: Runtime presents local pids
// 0..len(Members)-1 and multicasts reach the group only.
type InstanceConfig struct {
	Group   int
	Members []proto.PID // global pids, ascending
	Local   proto.PID   // this process's local id within the group
	Runtime proto.Runtime
	// Deliver must be invoked by the instance exactly once per
	// group-agreed body, in the agreed order — the Router's timestamp
	// merge is driven by this stream.
	Deliver func(body any)
	// InitialLocal lists the initially-live members in local ids (nil =
	// all) for membership-based algorithms.
	InitialLocal []proto.PID
}

// Coordinator is the per-simulation shared state of the group layer:
// the map, the per-group netmodel destination sets and the per-process
// routers, each of which owns its slabs and message pools. Reset keeps
// all of it for the next simulation on the same system, when that one
// runs a map of the same shape.
type Coordinator struct {
	sys      *proto.System
	m        *GroupMap
	instance func(InstanceConfig, *Endpoint)
	deliver  func(p proto.PID, id proto.MsgID, body any, at sim.Time)
	sets     []netmodel.SetID
	pre      []proto.PID // pre-crashed processes, for initial memberships
	routers  []*Router
}

// NewCoordinator registers one netmodel destination set per group and
// prepares router construction. preCrashed may be nil. instance is the one
// hook that makes a per-group protocol instance: given an empty endpoint
// it builds one into it, given one it built it resets it in place, in
// both cases to what the InstanceConfig describes.
func NewCoordinator(sys *proto.System, m *GroupMap, preCrashed []proto.PID, instance func(InstanceConfig, *Endpoint),
	deliver func(p proto.PID, id proto.MsgID, body any, at sim.Time)) *Coordinator {
	c := &Coordinator{sys: sys, instance: instance, deliver: deliver, routers: make([]*Router, m.N())}
	c.register(m, preCrashed)
	return c
}

// Reset returns c, its routers and their instances to the state
// NewCoordinator(sys, m, preCrashed, …) and a NewRouter call per process
// leave them in, on c's own system, which must have been reset since the
// last run, and with c's instance hook and deliver callback. m must have
// the shape of c's map (GroupMap.SameShape). Each router hands its built
// instances, in group order, to the hook again.
func (c *Coordinator) Reset(m *GroupMap, preCrashed []proto.PID) {
	if !m.SameShape(c.m) {
		panic(fmt.Sprintf("groups: Reset to %v, coordinator runs %v of another shape", m, c.m))
	}
	c.register(m, preCrashed)
	for _, r := range c.routers {
		r.reset()
	}
}

// register is what NewCoordinator and Reset share: it records the map and
// the pre-crashed processes and registers one destination set per group
// on the network.
func (c *Coordinator) register(m *GroupMap, preCrashed []proto.PID) {
	c.m, c.pre, c.sets = m, preCrashed, c.sets[:0]
	scratch := make([]int, 0, m.N())
	for g := 0; g < m.NumGroups(); g++ {
		scratch = scratch[:0]
		for _, p := range m.Members(g) {
			scratch = append(scratch, int(p))
		}
		c.sets = append(c.sets, c.sys.Net.RegisterSet(scratch))
	}
}

// initial lists the initially-live members of group gid in local ids, nil
// when all of them are.
func (c *Coordinator) initial(gid int) []proto.PID {
	members := c.m.Members(gid)
	var initial []proto.PID
	for _, q := range members {
		if !slices.Contains(c.pre, q) {
			initial = append(initial, c.m.LocalIndex(gid, q))
		}
	}
	if len(initial) == len(members) {
		return nil
	}
	return initial
}

// Map returns the coordinator's group map.
func (c *Coordinator) Map() *GroupMap { return c.m }

// Router returns process p's router.
func (c *Coordinator) Router(p proto.PID) *Router { return c.routers[p] }

// envelope wraps a group instance's payload for transit, naming the
// group so the receiving router can dispatch it. Envelopes are pooled
// per sending router and delegate reference counts to the wrapped
// payload, so the protocols' pooled messages keep their recycling
// discipline.
type envelope struct {
	gid   int32
	inner any
	netmodel.Box[envelope]
}

func (r *Router) wrap(gid int, inner any) *envelope {
	e := r.envs.Get()
	e.gid, e.inner = int32(gid), inner
	return e
}

// Retain implements netmodel.Pooled, delegating to the inner payload.
func (e *envelope) Retain(n int) {
	e.Box.Retain(n)
	if p, ok := e.inner.(netmodel.Pooled); ok {
		p.Retain(n)
	}
}

// Release implements netmodel.Pooled; the envelope recycles itself when
// its own count reaches zero.
func (e *envelope) Release() {
	if p, ok := e.inner.(netmodel.Pooled); ok {
		p.Release()
	}
	e.Box.Release()
}

// String names the envelope for traces: the group and the inner payload.
func (e *envelope) String() string {
	return fmt.Sprintf("g%d{%s}", e.gid, netmodel.PayloadName(e.inner))
}

// gmsg is a destination-group-addressed message: the dissemination gram
// sent to destination groups the sender is not in, and the body
// a-broadcast inside each destination group. Decision logs, pending
// records and fallbacks keep it, so it and its dests are carved from the
// sending router's slabs (gram) and never written again.
type gmsg struct {
	id    proto.MsgID
	from  proto.PID
	dests []int
	body  any
}

func (g *gmsg) String() string { return fmt.Sprintf("mgram %s d%v", g.id, g.dests) }

// tsProp carries one destination group's timestamp proposal for a
// message to the members of the other destination groups. It, tsReq and
// tsFinal are used up inside their handlers and travel in the sending
// router's pooled boxes.
type tsProp struct {
	id  proto.MsgID
	gid int
	ts  uint64
	netmodel.Box[tsProp]
}

func (t *tsProp) String() string { return fmt.Sprintf("tsprop %s g%d@%d", t.id, t.gid, t.ts) }

// tsReq asks a destination member to resend what it knows about a
// message's timestamps (stall recovery).
type tsReq struct {
	id proto.MsgID
	netmodel.Box[tsReq]
}

func (t *tsReq) String() string { return fmt.Sprintf("tsreq %s", t.id) }

// tsFinal short-circuits a stalled message with its already-agreed final
// timestamp (the responder delivered it before the requester recovered).
type tsFinal struct {
	id proto.MsgID
	ts uint64
	netmodel.Box[tsFinal]
}

func (t *tsFinal) String() string { return fmt.Sprintf("tsfinal %s@%d", t.id, t.ts) }

// advance is a-broadcast into a lagging group to pull its logical clock
// up to a multi-group message's final timestamp; it occupies a slot in
// the group's agreed stream without counting as a message. Decision logs
// keep it, so it is carved from the requesting router's slab.
type advance struct{ ts uint64 }

func (a *advance) String() string { return fmt.Sprintf("advance@%d", a.ts) }

// instance is one process's protocol stack for one of its groups.
type instance struct {
	gid     int
	pos     int // index in the router's local group list
	members []proto.PID
	local   proto.PID
	set     netmodel.SetID
	ep      Endpoint
	// rt and deliver are the instance's InstanceConfig.Runtime and
	// Deliver, made once.
	rt      *groupRuntime
	deliver func(body any)
	// seen dedups group-deliveries by global id (redundant initiations
	// collapse here; a home origin's ids arrive in sequence and collapse
	// into its watermark); initiated dedups our own initiations, from
	// initiation to group-delivery.
	seen      proto.IDTracker
	initiated proto.IDTable[struct{}]
}

// groupRuntime adapts the process's global runtime to one group's local
// id space: local pids, group-sized N, group-set multicast, payloads
// wrapped in group envelopes.
type groupRuntime struct {
	r    *Router
	inst *instance
}

func (g *groupRuntime) ID() proto.PID   { return g.inst.local }
func (g *groupRuntime) N() int          { return len(g.inst.members) }
func (g *groupRuntime) Now() sim.Time   { return g.r.proc.Now() }
func (g *groupRuntime) Rand() *sim.Rand { return g.r.proc.Rand() }
func (g *groupRuntime) Send(to proto.PID, payload any) {
	g.r.proc.Send(g.inst.members[to], g.r.wrap(g.inst.gid, payload))
}
func (g *groupRuntime) Multicast(payload any) {
	g.r.proc.MulticastSet(g.inst.set, g.r.wrap(g.inst.gid, payload))
}
func (g *groupRuntime) NewAlarm(fn func()) *proto.Alarm { return g.r.proc.NewAlarm(fn) }
func (g *groupRuntime) Suspects(q proto.PID) bool {
	return g.r.proc.Suspects(g.inst.members[q])
}

// pending is the ordering state of one message at one process: the
// proposals gathered so far and the delivery payload once some local
// destination group has agreed on the message. Records are recycled
// through the Router's free list (ensure, release).
type pending struct {
	id      proto.MsgID
	from    proto.PID
	dests   []int
	body    any
	hasBody bool
	// props is indexed by group id and kept with the record across reuse;
	// 0 = unknown: a proposal is a group clock after its ++, so at least 1.
	props   []uint64
	known   int
	final   bool
	ts      uint64 // final timestamp when final, max known proposal otherwise
	created sim.Time
}

// entLess orders pending entries by (timestamp, id) — the global
// delivery order. For a non-final entry ts is a lower bound, so the
// minimum entry being non-final means delivery must wait.
func entLess(a, b *pending) bool {
	if a.ts != b.ts {
		return a.ts < b.ts
	}
	return a.id.Less(b.id)
}

// Router is one process's group-multicast layer: the root protocol
// handler owning the per-group instances and merging their agreed
// streams into one total order over the messages destined to this
// process. Timestamps follow the classic merge: each destination group
// assigns a message its position in the group's agreed stream (a
// per-group logical clock), the final timestamp is the max over the
// destination groups, and delivery is in (timestamp, id) order once no
// earlier message can still appear — which per-group clocks guarantee
// once every local group's clock has reached the timestamp.
type Router struct {
	coord *Coordinator
	proc  *proto.Proc
	self  proto.PID
	insts []*instance

	seq    uint64 // per-process global message ids
	clock  []uint64
	reqAdv []uint64 // highest advance requested per local group
	pend   proto.IDTable[*pending]
	free   []*pending // released records, reused by ensure
	// done holds the final timestamp of every a-delivered id, by origin
	// and sequence number; 0 = not delivered (see doneTS, setDone). It is
	// the one table here whose rows never advance, because stall recovery
	// may ask for any delivered id's timestamp: 8 bytes per sequence
	// number an origin has issued since the first one delivered here, for
	// the life of one replication. A bare timestamp is half an
	// IDTable[uint64] slot and needs no presence bit: a final timestamp is
	// a maximum of proposals, so at least 1.
	done []proto.Window[uint64]

	envs netmodel.Pool[envelope] // this router's envelope pool (see wrap)

	// What receivers keep is carved (gram, Multicast, requestAdvance);
	// what their handlers use up is boxed (prop, tsReq, tsFinal).
	gramSlab  proto.Slab[gmsg]
	destSlab  proto.Slab[int]
	advSlab   proto.Slab[advance]
	props     netmodel.Pool[tsProp]
	reqs      netmodel.Pool[tsReq]
	finals    netmodel.Pool[tsFinal]
	fallbacks []*fallback // fired fallback records, reused by handleGram

	// stallArmed shadows stall.Pending() and, unlike it, stays set when
	// the process crashes with the probe armed, so after an in-place
	// recovery armStall never arms the probe again (ROADMAP 3g). Reading
	// stall.Pending() instead moves a full-trace golden: the fix is a
	// behaviour change of its own.
	stallArmed bool
	stall      *proto.Alarm // the stall probe
}

// NewRouter builds process p's router and its per-group instances, in
// ascending group order. The caller installs it as the process's root
// handler.
func (c *Coordinator) NewRouter(proc *proto.Proc) *Router {
	p := proc.ID()
	r := &Router{
		coord: c,
		proc:  proc,
		self:  p,
		done:  make([]proto.Window[uint64], c.m.N()),
		envs:  netmodel.NewPool(func(e *envelope) { e.inner = nil }),
	}
	r.stall = proc.NewAlarm(r.retryStalled)
	for _, gid := range c.m.GroupsOf(p) {
		inst := &instance{gid: gid, pos: len(r.insts)}
		inst.rt = &groupRuntime{r: r, inst: inst}
		inst.deliver = func(body any) { r.onGroupDeliver(inst, body) }
		r.insts = append(r.insts, inst)
	}
	r.clock = make([]uint64, len(r.insts))
	r.reqAdv = make([]uint64, len(r.insts))
	r.reset()
	c.routers[p] = r
	return r
}

// reset returns r to the state NewRouter leaves it in, handing each
// instance to the coordinator's instance hook, which builds an empty one
// and resets a built one. What is reset, not kept: the id
// sequence, the clocks and advance requests, the pending records (back to
// the free list), the delivered timestamps and stallArmed, whose probe the
// engine's reset dropped; each instance's dedup tables. Within
// a run stallArmed keeps its stickiness (ROADMAP 3g).
func (r *Router) reset() {
	c := r.coord
	r.seq = 0
	clear(r.clock)
	clear(r.reqAdv)
	r.pend.Each(func(_ proto.MsgID, ent **pending) { r.release(*ent) })
	r.pend.Reset()
	for i := range r.done {
		r.done[i].Reset()
	}
	r.stallArmed = false
	for _, inst := range r.insts {
		inst.members, inst.local, inst.set = c.m.Members(inst.gid), c.m.LocalIndex(inst.gid, r.self), c.sets[inst.gid]
		inst.seen.Reset()
		inst.initiated.Reset()
		c.instance(InstanceConfig{
			Group:        inst.gid,
			Members:      inst.members,
			Local:        inst.local,
			Runtime:      inst.rt,
			Deliver:      inst.deliver,
			InitialLocal: c.initial(inst.gid),
		}, &inst.ep)
	}
}

func (r *Router) instFor(gid int) *instance {
	for _, inst := range r.insts {
		if inst.gid == gid {
			return inst
		}
	}
	return nil
}

// Multicast initiates a message to the given destination groups and
// returns its global id. Groups containing this process get the message
// a-broadcast directly into their instance; the others receive a
// dissemination gram over their group set, whose lowest member initiates
// (with staggered fallbacks covering its crash). It panics on an invalid
// destination list (GroupMap.Dests).
func (r *Router) Multicast(dests []int, body any) proto.MsgID {
	r.seq++
	ds := r.destSlab.Carve(len(dests), 16, 1024)
	copy(ds, dests)
	g := r.gram(proto.MsgID{Origin: r.self, Seq: r.seq}, r.self, r.coord.m.sortDests(ds, dests), body)
	for _, gid := range g.dests {
		if inst := r.instFor(gid); inst != nil {
			r.initiate(inst, g)
		} else {
			r.proc.MulticastSet(r.coord.sets[gid], g)
		}
	}
	return g.id
}

// gram carves a gram from the router's slab.
func (r *Router) gram(id proto.MsgID, from proto.PID, dests []int, body any) *gmsg {
	g := &r.gramSlab.Carve(1, 8, 256)[0]
	g.id, g.from, g.dests, g.body = id, from, dests, body
	return g
}

func (r *Router) initiate(inst *instance, g *gmsg) {
	inst.initiated.Put(g.id, struct{}{})
	inst.ep.ABroadcast(g)
}

// Init implements proto.Handler.
func (r *Router) Init() {
	for _, inst := range r.insts {
		inst.ep.Handler.Init()
	}
}

// OnMessage implements proto.Handler: group envelopes dispatch into the
// named instance in its local id space; everything else is the group
// layer's own traffic.
func (r *Router) OnMessage(from proto.PID, payload any) {
	switch p := payload.(type) {
	case *envelope:
		inst := r.instFor(int(p.gid))
		if inst == nil {
			panic(fmt.Sprintf("groups: process %d received an envelope for group %d it is not in", r.self, p.gid))
		}
		inst.ep.Handler.OnMessage(r.coord.m.LocalIndex(inst.gid, from), p.inner)
	case *gmsg:
		r.handleGram(p)
	case *tsProp:
		r.onTSProp(p)
	case *tsReq:
		r.onTSReq(from, p)
	case *tsFinal:
		r.onTSFinal(p)
	default:
		panic(fmt.Sprintf("groups: unknown payload %T", payload))
	}
}

// OnSuspect implements proto.Handler, forwarding the system detector's
// edge to every shared group's instance in local ids.
func (r *Router) OnSuspect(q proto.PID) {
	for _, inst := range r.insts {
		if lq := r.coord.m.LocalIndex(inst.gid, q); lq >= 0 {
			inst.ep.Handler.OnSuspect(lq)
		}
	}
}

// OnTrust implements proto.Handler.
func (r *Router) OnTrust(q proto.PID) {
	for _, inst := range r.insts {
		if lq := r.coord.m.LocalIndex(inst.gid, q); lq >= 0 {
			inst.ep.Handler.OnTrust(lq)
		}
	}
}

// handleGram processes a dissemination gram for destination groups the
// sender is not in: the lowest member initiates immediately, higher
// members arm rank-staggered fallbacks in case it crashed.
func (r *Router) handleGram(g *gmsg) {
	if r.doneTS(g.id) != 0 {
		return
	}
	for _, gid := range g.dests {
		inst := r.instFor(gid)
		if inst == nil || inst.pastInitiation(g.id) {
			continue
		}
		if r.coord.m.Contains(gid, g.from) {
			continue // the sender initiates into its own groups itself
		}
		if inst.local == 0 {
			r.initiate(inst, g)
			continue
		}
		var f *fallback
		if n := len(r.fallbacks); n > 0 {
			f, r.fallbacks = r.fallbacks[n-1], r.fallbacks[:n-1]
		} else {
			f = &fallback{r: r}
			f.alarm = r.proc.NewAlarm(f.fire)
		}
		f.inst, f.g = inst, g
		f.alarm.Arm(time.Duration(inst.local) * initFallback)
	}
}

// fallback is a higher member's deferred initiation of a gram into one of
// its groups. A record returns to the router's free list only inside its
// own firing, so a pending record is never reused; a firing dropped
// because the process crashed leaves the record to the garbage collector.
type fallback struct {
	r     *Router
	inst  *instance
	g     *gmsg
	alarm *proto.Alarm // bound once to fire
}

func (f *fallback) fire() {
	if !f.inst.pastInitiation(f.g.id) {
		f.r.initiate(f.inst, f.g)
	}
	f.inst, f.g = nil, nil
	f.r.fallbacks = append(f.r.fallbacks, f)
}

// pastInitiation reports whether id needs no (further) initiation into
// this instance: the group has delivered it or this process has already
// a-broadcast it.
func (inst *instance) pastInitiation(id proto.MsgID) bool {
	return inst.seen.Seen(id) || inst.initiated.Get(id) != nil
}

// doneTS returns the final timestamp id was a-delivered with here, 0 if
// it has not been.
func (r *Router) doneTS(id proto.MsgID) uint64 {
	if ts := r.done[id.Origin].Get(id.Seq); ts != nil {
		return *ts
	}
	return 0
}

// setDone records id as a-delivered with final timestamp ts (at least 1).
func (r *Router) setDone(id proto.MsgID, ts uint64) {
	row := &r.done[id.Origin]
	if row.Lo() == row.Hi() {
		row.Advance(id.Seq) // the row starts at the first id delivered here
	}
	*row.At(id.Seq) = ts
}

// ensure returns id's pending record, taking one off the free list (or
// the heap, while the pool warms up) on first sight of the id.
func (r *Router) ensure(id proto.MsgID) *pending {
	if ent := r.pend.Get(id); ent != nil {
		return *ent
	}
	var ent *pending
	if n := len(r.free); n > 0 {
		ent, r.free = r.free[n-1], r.free[:n-1]
	} else {
		ent = &pending{props: make([]uint64, r.coord.m.NumGroups())}
	}
	ent.id, ent.created = id, r.proc.Now()
	r.pend.Put(id, ent)
	return ent
}

// release takes a delivered record out of the pending set and returns it
// to the free list with nothing of this life left in it but the capacity
// of props.
func (r *Router) release(ent *pending) {
	r.pend.Delete(ent.id)
	props := ent.props
	clear(props)
	*ent = pending{props: props}
	r.free = append(r.free, ent)
}

// onGroupDeliver consumes one group's agreed stream: fresh messages tick
// the group clock and become that group's proposal, advances pull the
// clock forward, duplicates (redundant initiations) are skipped.
func (r *Router) onGroupDeliver(inst *instance, body any) {
	switch b := body.(type) {
	case *gmsg:
		if !inst.seen.Add(b.id) {
			return
		}
		inst.initiated.Delete(b.id)
		r.clock[inst.pos]++
		if r.doneTS(b.id) != 0 {
			// Already a-delivered here (a recovery short-circuited the
			// timestamp); the stream position still ticks the clock so
			// this member stays aligned with the group.
			return
		}
		prop := r.clock[inst.pos]
		ent := r.ensure(b.id)
		if !ent.hasBody {
			ent.from, ent.dests, ent.body, ent.hasBody = b.from, b.dests, b.body, true
		}
		if ent.props[inst.gid] == 0 {
			ent.props[inst.gid] = prop
			ent.known++
			if prop > ent.ts {
				ent.ts = prop
			}
			if ent.known == len(b.dests) {
				ent.final = true
				r.eagerAdvance(ent.ts)
			}
		}
		if len(b.dests) > 1 {
			r.sendProps(inst, b, prop)
		}
		r.pump()
	case *advance:
		if b.ts > r.clock[inst.pos] {
			r.clock[inst.pos] = b.ts
		}
		r.pump()
	default:
		panic(fmt.Sprintf("groups: instance delivered unknown body %T", body))
	}
}

// sendProps announces this group's proposal for a multi-group message
// to the other destination groups, one set-multicast per group: the
// proposal is the group's agreed stream position, so every member
// announces the same value and receivers keep the first copy. A
// multicast rides each wire once where per-member unicasts would relay
// a copy per member through the gateways — on geo topologies that
// difference is what keeps the merge pipeline off the LAN wires'
// saturation point. Members of several destination groups receive a
// copy per group; duplicates are dropped by the props table.
func (r *Router) sendProps(inst *instance, b *gmsg, prop uint64) {
	for _, gid := range b.dests {
		if gid == inst.gid {
			continue
		}
		r.proc.MulticastSet(r.coord.sets[gid], r.prop(b.id, inst.gid, prop))
	}
}

// prop draws a proposal from the router's pool.
func (r *Router) prop(id proto.MsgID, gid int, ts uint64) *tsProp {
	t := r.props.Get()
	t.id, t.gid, t.ts = id, gid, ts
	return t
}

func (r *Router) onTSProp(t *tsProp) {
	if r.doneTS(t.id) != 0 {
		return // late duplicate; we are done with this message
	}
	ent := r.ensure(t.id)
	if ent.props[t.gid] != 0 {
		return
	}
	ent.props[t.gid] = t.ts
	ent.known++
	if t.ts > ent.ts {
		ent.ts = t.ts
	}
	if ent.hasBody && ent.known == len(ent.dests) {
		ent.final = true
		r.eagerAdvance(ent.ts)
	}
	r.pump()
}

func (r *Router) onTSReq(from proto.PID, t *tsReq) {
	if ts := r.doneTS(t.id); ts != 0 {
		f := r.finals.Get()
		f.id, f.ts = t.id, ts
		r.proc.Send(from, f)
		return
	}
	p := r.pend.Get(t.id)
	if p == nil {
		return
	}
	ent := *p
	if ent.hasBody {
		for _, gid := range ent.dests {
			if ts := ent.props[gid]; ts != 0 {
				r.proc.Send(from, r.prop(t.id, gid, ts))
			}
		}
		return
	}
	for gid, ts := range ent.props {
		if ts != 0 {
			r.proc.Send(from, r.prop(t.id, gid, ts))
		}
	}
}

func (r *Router) onTSFinal(t *tsFinal) {
	if r.doneTS(t.id) != 0 {
		return
	}
	ent := r.ensure(t.id)
	if !ent.final {
		ent.final = true
		ent.ts = t.ts
		r.eagerAdvance(t.ts)
	}
	r.pump()
}

// eagerAdvance requests clock advances for an entry just finalized at
// timestamp ts the moment that timestamp is known, instead of waiting for
// it to reach the head of the delivery queue: the advance's consensus
// round then runs concurrently with the head-of-line wait behind earlier
// entries.
// Without this, every cross-group delivery serializes behind a full
// consensus round and the merge pipeline's capacity collapses.
func (r *Router) eagerAdvance(ts uint64) {
	for pos, inst := range r.insts {
		if r.clock[pos] < ts {
			r.requestAdvance(inst, pos, ts)
		}
	}
}

// head returns the (timestamp, id)-minimum pending entry, nil when none
// is pending. entLess is a strict order, so the scan order of pend does
// not matter.
func (r *Router) head() *pending {
	var head *pending
	r.pend.Each(func(_ proto.MsgID, ent **pending) {
		if head == nil || entLess(*ent, head) {
			head = *ent
		}
	})
	return head
}

// pump delivers every message whose turn has come: repeatedly take the
// (timestamp, id)-minimum pending entry; if its timestamp is not final
// yet nothing can be delivered (a smaller-timestamp entry may still
// finalize below everything else) — arm the stall probe; if some local
// group's clock is behind the timestamp, a future message in that group
// could still propose a smaller timestamp — request an advance and wait.
func (r *Router) pump() {
	for {
		head := r.head()
		if head == nil {
			return
		}
		if !head.final {
			r.armStall()
			return
		}
		// ts is read once: an a-broadcast below that delivered on the spot
		// would re-enter pump and could recycle head under this loop.
		lag, ts := false, head.ts
		for pos, inst := range r.insts {
			if r.clock[pos] < ts {
				lag = true
				r.requestAdvance(inst, pos, ts)
			}
		}
		if lag {
			return
		}
		if !head.hasBody {
			// The clock gate implies every local destination stream has
			// already passed this message, so the body must be here.
			panic(fmt.Sprintf("groups: process %d delivering %s without a body", r.self, head.id))
		}
		id, body := head.id, head.body
		r.setDone(id, ts)
		r.release(head)
		r.coord.deliver(r.self, id, body, r.proc.Now())
	}
}

// requestAdvance a-broadcasts an advance into a lagging local group,
// once per needed timestamp (outstanding requests batch: while one is in
// flight, later messages wait and are covered by the next request).
func (r *Router) requestAdvance(inst *instance, pos int, ts uint64) {
	if r.reqAdv[pos] >= ts {
		return
	}
	r.reqAdv[pos] = ts
	a := &r.advSlab.Carve(1, 8, 512)[0]
	a.ts = ts
	inst.ep.ABroadcast(a)
}

// armStall arms the stall probe: if the minimum entry still lacks its
// final timestamp after stallRetry (normal proposals travel with the
// protocol traffic; only crashes and recoveries leave gaps), ask the
// destination groups' members to resend what they know (retryStalled,
// the probe's callback).
func (r *Router) armStall() {
	if r.stallArmed {
		return
	}
	r.stallArmed = true
	r.stall.Arm(stallRetry)
}

func (r *Router) retryStalled() {
	r.stallArmed = false
	head := r.head()
	if head == nil {
		return
	}
	if head.final {
		r.pump()
		return
	}
	if r.proc.Now().Sub(head.created) >= stallRetry && head.hasBody {
		for _, gid := range head.dests {
			if head.props[gid] != 0 {
				continue
			}
			if r.instFor(gid) == nil && !r.coord.m.Contains(gid, head.from) {
				// A remote group with no proposal may never have received
				// the dissemination gram at all (lost to a partition, with
				// the sender unable to notice): resend it from the body we
				// hold. handleGram dedups, so a redundant copy is harmless.
				r.proc.MulticastSet(r.coord.sets[gid], r.gram(head.id, head.from, head.dests, head.body))
			}
			for _, q := range r.coord.m.Members(gid) {
				if q != r.self {
					req := r.reqs.Get()
					req.id = head.id
					r.proc.Send(q, req)
				}
			}
		}
	}
	r.armStall()
}
