package proto_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ctabcast"
	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// event is one step of a run: the broadcast of id when p < 0, else its
// delivery at p.
type event struct {
	p  proto.PID
	id proto.MsgID
}

func replay(n int, log []event) *proto.History {
	h := proto.NewHistory(n)
	for _, e := range log {
		if e.p < 0 {
			h.Broadcast(e.id)
		} else {
			h.Deliver(e.p, e.id)
		}
	}
	return h
}

func TestHistoryPlantedFaults(t *testing.T) {
	a, b, c := proto.MsgID{Origin: 0, Seq: 1}, proto.MsgID{Origin: 1, Seq: 1}, proto.MsgID{Origin: 2, Seq: 1}
	// feed broadcasts a, b and c and delivers seqs[p] at each p.
	feed := func(seqs ...[]proto.MsgID) *proto.History {
		log := []event{{-1, a}, {-1, b}, {-1, c}}
		for p, seq := range seqs {
			for _, m := range seq {
				log = append(log, event{proto.PID(p), m})
			}
		}
		return replay(3, log)
	}
	restarted := feed([]proto.MsgID{a, b}, []proto.MsgID{a, b})
	restarted.Restart(1)
	restarted.Deliver(1, a)
	restarted.Deliver(1, b)
	multicast := proto.NewHistory(3)
	multicast.Multicast(a, []proto.PID{0, 1})
	multicast.Deliver(2, a)
	order, p0p2 := proto.Order, func(p proto.PID) bool { return p != 1 }
	for _, tc := range []struct {
		name    string
		h       *proto.History
		clauses proto.Clause
		want    string // substring of the report, "" for a clean run
	}{
		{"clean", feed([]proto.MsgID{a, b, c}, []proto.MsgID{a, b, c}, []proto.MsgID{a, b, c}), order, ""},
		{"clean with gaps", feed([]proto.MsgID{a, c}, []proto.MsgID{b, c}, []proto.MsgID{a, b}), order, ""},
		{"duplicated delivery", feed([]proto.MsgID{a, b, a}, []proto.MsgID{a, b}), order, "p0 delivered 0:1 twice"},
		{"opposite orders", feed([]proto.MsgID{a, b, c}, []proto.MsgID{a, c, b}), order, "opposite orders"},
		{"never broadcast", feed([]proto.MsgID{a, {Origin: 3, Seq: 9}}, []proto.MsgID{a}), order, "never broadcast"},
		{"re-delivery after a restart", restarted, order, ""},
		{"delivery outside the destinations", multicast, order, "p2 delivered 0:1, multicast to [0 1]"},
		// p1's b reached p0 only: validity owes p2 nothing p1 sent.
		{"validity for given senders", feed([]proto.MsgID{a, b, c}, nil, []proto.MsgID{a, c}), proto.Validity, ""},
		{"destinations for every sender", feed([]proto.MsgID{a, b, c}, nil, []proto.MsgID{a, c}), proto.Destinations, "p2 never delivered 1:1"},
	} {
		err := tc.h.Check(tc.clauses, p0p2)
		if got := fmt.Sprint(err); tc.want == "" && err != nil || !strings.Contains(got, tc.want) {
			t.Errorf("%s: reported %v, want %q", tc.name, err, tc.want)
		}
	}
}

// recordFD runs three FD processes, each broadcasting four messages, to
// quiescence and returns every broadcast and delivery in order.
func recordFD(t *testing.T) []event {
	const n = 3
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(n), fd.QoS{}, sim.NewRand(5))
	var log []event
	procs := make([]*ctabcast.Process, n)
	for p := range procs {
		pid := proto.PID(p)
		procs[p] = ctabcast.New(sys.Proc(pid), ctabcast.Config{Deliver: func(id proto.MsgID, _ any) { log = append(log, event{pid, id}) }})
		sys.SetHandler(pid, procs[p])
	}
	sys.Start()
	for k := 0; k < 12; k++ {
		p := k % n
		eng.Schedule(sim.Time(0).Add(time.Duration(k)*700*time.Microsecond), func() {
			log = append(log, event{-1, procs[p].ABroadcast(nil)})
		})
	}
	eng.Run()
	if len(log) != 12*(1+n) {
		t.Fatalf("recorded %d events, want 12 broadcasts and their %d deliveries", len(log), 12*n)
	}
	return log
}

// TestHistoryReportsMutations plants four faults in a recorded, quiescent
// FD history and asserts exactly which clauses report each.
func TestHistoryReportsMutations(t *testing.T) {
	log := recordFD(t)
	// reported lists the clauses the replay of log reports; integrity
	// reports a duplicate as "twice" and a phantom as "never broadcast".
	reported := func(log []event) (out []string) {
		all := proto.Order | proto.Prefix | proto.Agreement | proto.Validity | proto.Destinations
		err := fmt.Sprint(replay(3, log).Check(all, func(proto.PID) bool { return true }))
		for _, clause := range []string{"twice", "never broadcast", "order:", "prefix:", "agreement:", "validity:", "destinations:"} {
			if strings.Contains(err, clause) {
				out = append(out, strings.TrimSuffix(clause, ":"))
			}
		}
		return out
	}
	// at returns the index in log of p's k-th delivery.
	at := func(p proto.PID, k int) int {
		for i, e := range log {
			if e.p == p {
				if k--; k < 0 {
					return i
				}
			}
		}
		panic("no such delivery")
	}
	swapped, i, j := slices.Clone(log), at(1, 3), at(1, 4)
	swapped[i], swapped[j] = swapped[j], swapped[i]
	for _, tc := range []struct {
		name string
		log  []event
		want []string
	}{
		{"recorded", log, nil},
		{"swap two deliveries", swapped, []string{"order", "prefix"}},
		{"drop one", slices.Delete(slices.Clone(log), at(2, 5), at(2, 5)+1), []string{"prefix", "agreement", "validity", "destinations"}},
		{"duplicate one", append(slices.Clone(log), log[at(0, 2)]), []string{"twice"}},
		{"deliver an id never broadcast", append(slices.Clone(log), event{1, proto.MsgID{Origin: 2, Seq: 99}}), []string{"never broadcast"}},
	} {
		if got := reported(tc.log); !slices.Equal(got, tc.want) {
			t.Errorf("%s: reported by %v, want %v", tc.name, got, tc.want)
		}
	}
}
