package experiment

import (
	"slices"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/sim"
)

// mapAwaited keeps the awaited set the way the pipeline first kept it: an
// A-broadcast map and an earliest-A-delivery map, whose keys are
// collected and sorted before the latencies are summed in that order.
type mapAwaited struct {
	start, end  sim.Time
	probe       *transientInfo
	sent, first map[proto.MsgID]sim.Time
}

func newMapAwaited(cfg Config) *mapAwaited {
	start := sim.Time(0).Add(cfg.Warmup)
	end := start.Add(cfg.Measure)
	if cfg.transient != nil {
		end = start
	}
	return &mapAwaited{
		start: start, end: end, probe: cfg.transient,
		sent: map[proto.MsgID]sim.Time{}, first: map[proto.MsgID]sim.Time{},
	}
}

// ObserveBroadcast awaits a steady point's broadcasts of the measure
// window, or a transient point's probe: the sender's broadcast at Warmup.
func (o *mapAwaited) ObserveBroadcast(b Broadcast) {
	awaited := b.At >= o.start && b.At < o.end
	if o.probe != nil {
		awaited = b.At == o.start && b.Sender == o.probe.sender && len(o.sent) == 0
	}
	if awaited {
		o.sent[b.ID] = b.At
	}
}

func (o *mapAwaited) ObserveDelivery(d Delivery) {
	if _, awaited := o.sent[d.ID]; awaited {
		if _, seen := o.first[d.ID]; !seen {
			o.first[d.ID] = d.At
		}
	}
}

// result returns the latencies in milliseconds, in canonical MsgID order,
// and the number of awaited ids never delivered.
func (o *mapAwaited) result() (latencies []float64, undelivered int) {
	var ids []proto.MsgID
	for id := range o.sent {
		ids = append(ids, id)
	}
	proto.SortMsgIDs(ids)
	for _, id := range ids {
		t1, ok := o.first[id]
		if !ok {
			undelivered++
			continue
		}
		latencies = append(latencies, t1.Sub(o.sent[id]).Seconds()*1000)
	}
	return latencies, undelivered
}

// TestAwaitedSetMatchesMaps checks the pipeline's awaited set against the
// two maps it replaced: on every kind of point, each replication's
// latencies, bit for bit and in order, and its undelivered count equal
// what a sent map and a first-delivery map accumulate in sorted key
// order. The points share one replication value, as a Runner worker's do.
func TestAwaitedSetMatchesMaps(t *testing.T) {
	const ms = time.Millisecond
	steady := func(alg Algorithm) Config {
		return Config{
			Algorithm: alg, N: 3, Throughput: 300, Seed: 7,
			Warmup: 100 * ms, Measure: 400 * ms, Drain: 5 * time.Second, Replications: 2,
		}
	}
	grouped := steady(FD)
	grouped.N, grouped.Groups, grouped.CrossShard = 6, groups.Disjoint(6, 2), 0.2
	transient := steady(GM)
	transient.QoS = fd.QoS{TD: 10 * ms}
	transient = TransientConfig{Config: transient, Crash: 0, Sender: 1}.point()
	short := steady(FD)
	short.Drain = ms
	cases := []struct {
		name          string
		cfg           Config
		wantUndeliver bool
	}{
		{"FD", steady(FD), false},
		{"GM", steady(GM), false},
		{"groups, cross-shard 0.2", grouped, false},
		{"GM crash-transient", transient, false},
		{"FD, drain too short", short, true},
	}
	w := new(replication)
	for _, tc := range cases {
		cfg := tc.cfg.withDefaults()
		if err := cfg.validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var obs *mapAwaited
		cfg.Observers = []ObserverFactory{func(int, int, Config) Observer {
			obs = newMapAwaited(cfg)
			return obs
		}}
		for rep := 0; rep < cfg.Replications; rep++ {
			rs := w.run(cfg, 0, rep)
			want, undelivered := obs.result()
			if got := rs.Latencies.Values(); !slices.Equal(got, want) {
				t.Errorf("%s rep %d: %d latencies, want %d from the maps (first difference at %d)",
					tc.name, rep, len(got), len(want), firstDiff(got, want))
			}
			if rs.Undelivered != undelivered {
				t.Errorf("%s rep %d: %d undelivered, want %d from the maps", tc.name, rep, rs.Undelivered, undelivered)
			}
			if len(want) == 0 || (undelivered > 0) != tc.wantUndeliver {
				t.Errorf("%s rep %d: %d latencies and %d undelivered: not the case this point is for",
					tc.name, rep, len(want), undelivered)
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []float64) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}
