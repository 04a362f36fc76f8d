package main

import "time"

// traced returns the per-layer metrics the checked passes of this workload
// yield: counts taken at the network tracer, shares taken from the spans.
// A metric over a class of points the workload does not have reads 0.
func (s *wstate) traced() metrics {
	a := s.tr.agg
	m := metrics{}
	msgs := float64(a.broadcasts)

	m.set("netmodel.sends_per_msg", ratio(float64(a.sends), msgs), "sends/msg")
	m.set("netmodel.wire_slots_per_msg", ratio(float64(a.wires), msgs), "slots/msg")
	m.set("netmodel.deliveries_per_msg", ratio(float64(a.delivers), msgs), "copies/msg")
	m.set("netmodel.lost_per_msg", ratio(float64(a.lost), msgs), "copies/msg")
	// One wire event holds the shared wire for one 1 ms slot.
	m.set("netmodel.wire_busy_share", ratio(float64(a.busySlots)*float64(time.Millisecond), float64(a.busySpan)), "ratio")

	m.set("hbfd.sends_share", ratio(float64(a.heartbeat.sends[layHeartbeat]), float64(a.heartbeat.totalSends())), "ratio")

	fdSends := a.fd.sends[layRbcast] + a.fd.sends[layConsensus] + a.fd.sends[layCatchUp]
	m.set("ctabcast.msgs_per_instance", ratio(float64(a.fd.broadcasts), float64(a.fd.instances)), "msgs/inst")
	m.set("ctabcast.sends_per_msg", ratio(float64(fdSends), float64(a.fd.broadcasts)), "sends/msg")
	m.set("seqabcast.sends_per_msg", ratio(float64(a.gm.sends[laySeqabcast]), float64(a.gm.broadcasts)), "sends/msg")
	m.set("gm.view_sends_per_msg", ratio(float64(a.gm.sends[layGM]), float64(a.gm.broadcasts)), "sends/msg")

	m.set("groups.sends_per_msg_local", ratio(float64(a.local.totalSends()), float64(a.local.broadcasts)), "sends/msg")
	m.set("groups.sends_per_msg_cross", ratio(float64(a.cross.totalSends()), float64(a.cross.broadcasts)), "sends/msg")
	m.set("groups.router_sends_share",
		ratio(float64(a.local.sends[layRouter]+a.cross.sends[layRouter]), float64(a.local.totalSends()+a.cross.totalSends())), "ratio")

	var checkedWall float64
	for _, ms := range a.passMs {
		checkedWall += ms
	}
	m.set("experiment.construct_share", ratio(float64(a.construct)/1e6, checkedWall), "ratio")
	m.set("experiment.simulate_share", ratio(float64(a.simulate)/1e6, checkedWall), "ratio")
	m.set("experiment.merge_ms", median(a.mergeMs), "ms")

	passMs := s.passMs()
	m.set("runner.pass_ms_p50", median(passMs), "ms")
	m.set("runner.pass_ms_p90", quantile(passMs, 0.9), "ms")

	// The benchmark's own observer cost: checked passes against untraced
	// one-worker passes of the same seeds.
	baseline := s.serialMs
	if s.w.workers == 1 {
		baseline = passMs[:len(a.passMs)]
	}
	m.set("bench.trace_overhead_share", ratio(median(a.passMs), median(baseline))-1, "ratio")
	return m
}
