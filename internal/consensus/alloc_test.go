//go:build !race

// The race detector instruments allocation itself, so this budget is
// excluded under -race; CI runs it in a separate uninstrumented step.
package consensus

import (
	"testing"

	"repro/internal/proto"
)

// allocNet joins recycled instances by an in-memory FIFO queue. Each
// transport is held by pointer and takes its instance's decision
// (Decider), the way an embedding protocol that pools its instances
// holds them: handing one to Reset boxes nothing.
type allocNet struct {
	insts    []Instance
	cfgs     []Config
	trs      []allocTransport
	queue    []queued
	decided  int
	proposer proto.PID // of the last decision
}

type allocTransport struct {
	net  *allocNet
	self proto.PID
}

func (t *allocTransport) Send(to proto.PID, m Msg) {
	t.net.queue = append(t.net.queue, queued{from: t.self, to: to, m: m})
}

func (t *allocTransport) Multicast(m Msg) {
	for p := range t.net.insts {
		t.net.queue = append(t.net.queue, queued{from: t.self, to: proto.PID(p), m: m})
	}
}

func (t *allocTransport) Decide(_ Value, proposer proto.PID) {
	t.net.decided++
	t.net.proposer = proposer
}

// newAllocNet builds n instances; with suspectFirst every process but
// the round-1 coordinator suspects it, so deciding takes a second round.
func newAllocNet(n int, suspectFirst bool) *allocNet {
	net := &allocNet{insts: make([]Instance, n), cfgs: make([]Config, n), trs: make([]allocTransport, n)}
	for p := range net.cfgs {
		self := proto.PID(p)
		net.trs[p] = allocTransport{net: net, self: self}
		net.cfgs[p] = Config{
			Self:         self,
			Participants: pids(n),
			Suspects:     func(q proto.PID) bool { return suspectFirst && q == 0 && self != 0 },
		}
	}
	return net
}

// instance runs one execution to decision on the recycled instances.
func (net *allocNet) instance(v Value) {
	for p := range net.insts {
		net.insts[p].Reset(net.cfgs[p], &net.trs[p])
	}
	for p := range net.insts {
		net.insts[p].Start(v)
	}
	for i := 0; i < len(net.queue); i++ {
		q := net.queue[i]
		net.insts[q.to].OnMessage(q.from, q.m)
	}
	net.queue = net.queue[:0]
}

// TestInstanceAllocBudget bounds one consensus execution on warm,
// recycled instances: nothing. With messages boxed into an interface it
// cost a proposal and a decision box per instance (acks, nacks and aborts
// of low rounds were interned), and an estimate box per round-2 estimate.
func TestInstanceAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		suspect bool
	}{
		{"n=3", 3, false},
		{"n=7", 7, false},
		{"n=3/coordinator suspected", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := newAllocNet(tc.n, tc.suspect)
			var v Value = "v"
			for i := 0; i < 8; i++ {
				net.instance(v)
			}
			const runs = 100
			net.decided = 0
			allocs := testing.AllocsPerRun(runs, func() { net.instance(v) })
			if want := (runs + 1) * tc.n; net.decided != want {
				t.Fatalf("%d decisions, want %d", net.decided, want)
			}
			if suspected := net.proposer != 0; suspected != tc.suspect {
				t.Fatalf("decided on %d's proposal", net.proposer)
			}
			if allocs > 0 {
				t.Fatalf("%.1f allocs per instance, budget 0", allocs)
			}
		})
	}
}
