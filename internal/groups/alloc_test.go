//go:build !race

// Allocation counts of the group router's per-message paths. The race
// detector instruments allocation itself, so the file is excluded under
// -race.
package groups

import (
	"testing"
	"time"

	"repro/internal/ctabcast"
	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// TestRouterMulticastAllocBudget: on warm routers over FD instances, a
// multicast run to delivery at every destination member allocates
// nothing, shard-local or cross-shard. The gram and its destinations are
// carved from the sender's slabs, proposals, requests and finals travel
// in pooled boxes, advances are carved, and the fallback timers of a
// remote group's higher members are recycled records.
func TestRouterMulticastAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     *GroupMap
		from  proto.PID
		dests []int
	}{
		{"Disjoint(6,2)/local", Disjoint(6, 2), 1, []int{0}},
		{"Disjoint(6,2)/cross", Disjoint(6, 2), 1, []int{0, 1}},
		{"Disjoint(12,4)/local", Disjoint(12, 4), 4, []int{1}},
		{"Disjoint(12,4)/cross", Disjoint(12, 4), 4, []int{3, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			sys := proto.NewSystem(eng, netmodel.DefaultConfig(tc.m.N()), fd.QoS{}, sim.NewRand(7))
			factory := func(ic InstanceConfig) Endpoint {
				proc := ctabcast.New(ic.Runtime, ctabcast.Config{
					Deliver:  func(_ proto.MsgID, body any) { ic.Deliver(body) },
					Renumber: true,
				})
				return Endpoint{Handler: proc, ABroadcast: proc.ABroadcast}
			}
			delivered := 0
			coord := NewCoordinator(sys, tc.m, nil, factory, func(proto.PID, proto.MsgID, any, sim.Time) { delivered++ })
			for p := 0; p < tc.m.N(); p++ {
				sys.SetHandler(proto.PID(p), coord.NewRouter(sys.Proc(proto.PID(p))))
			}
			sys.Start()
			want := 0
			for _, gid := range tc.dests {
				want += len(tc.m.Members(gid))
			}
			r := coord.Router(tc.from)
			mcast := func() {
				delivered = 0
				r.Multicast(tc.dests, "body")
				for delivered < want {
					eng.RunUntil(eng.Now().Add(time.Millisecond))
				}
			}
			for i := 0; i < 300; i++ {
				mcast()
			}
			allocs := testing.AllocsPerRun(300, mcast)
			if allocs > 0 {
				t.Fatalf("one multicast to %v run to delivery: %.2f allocs, budget 0", tc.dests, allocs)
			}
		})
	}
}
