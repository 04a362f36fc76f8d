package proto

import (
	"fmt"
	"slices"
	"strings"
)

// History records one run's broadcasts and deliveries and checks them
// against the atomic broadcast specification — validity, uniform
// agreement, uniform integrity and uniform total order, the last taken
// pairwise so that it also states atomic multicast's order on shared
// destinations. Feed it every broadcast and delivery in the order they
// happen: integrity is checked at each delivery, the other clauses when
// Check names them.
type History struct {
	index IDTable[int32] // numbers the broadcast ids densely, in broadcast order
	ids   []MsgID
	// dests[i] lists multicast i's destinations, nil for every process; it
	// stays shorter than ids until the first multicast.
	dests [][]PID
	// seq[p] is p's delivery sequence in its current incarnation; pos[p][i]
	// is the position of id number i in it, -1 while p has not delivered it.
	seq, pos [][]int32
	findings []string // the first few violations
	count    int      // all of them
}

// Clause names a property Check asserts over the live processes; an id
// reaches a process only if the process is among its destinations.
type Clause uint8

const (
	Order        Clause = 1 << iota // any two processes deliver the ids they share in one order
	Prefix                          // the live processes' sequences are prefixes of one another
	Agreement                       // an id delivered anywhere reaches every live process
	Validity                        // an id broadcast by a live process reaches every live process
	Destinations                    // every id reaches every live process, whoever sent it
)

// NewHistory returns an empty history of n processes.
func NewHistory(n int) *History {
	return &History{seq: make([][]int32, n), pos: make([][]int32, n)}
}

func (h *History) violate(format string, args ...any) {
	if h.count++; len(h.findings) < 5 {
		h.findings = append(h.findings, fmt.Sprintf(format, args...))
	}
}

// Broadcast records the broadcast of id to every process.
func (h *History) Broadcast(id MsgID) { h.Multicast(id, nil) }

// Multicast records the multicast of id to the processes in to, nil
// meaning every process.
func (h *History) Multicast(id MsgID, to []PID) {
	if h.index.Get(id) != nil {
		h.violate("%v broadcast twice", id)
		return
	}
	h.index.Put(id, int32(len(h.ids)))
	h.ids = append(h.ids, id)
	if to != nil {
		h.dests = append(h.dests, make([][]PID, len(h.ids)-len(h.dests))...)
		h.dests[len(h.ids)-1] = slices.Clone(to)
	}
}

func (h *History) destined(i int32, p PID) bool {
	return int(i) >= len(h.dests) || h.dests[i] == nil || slices.Contains(h.dests[i], p)
}

func (h *History) delivered(p PID, i int32) bool {
	return int(i) < len(h.pos[p]) && h.pos[p][i] >= 0
}

// Deliver records the delivery of id at p and checks uniform integrity: p
// delivers id at most once per incarnation, only if it was broadcast, and
// only if it is among its destinations.
func (h *History) Deliver(p PID, id MsgID) {
	ip := h.index.Get(id)
	switch {
	case ip == nil:
		h.violate("p%d delivered %v, which was never broadcast", p, id)
	case !h.destined(*ip, p):
		h.violate("p%d delivered %v, multicast to %v", p, id, h.dests[*ip])
	case h.delivered(p, *ip):
		h.violate("p%d delivered %v twice", p, id)
	default:
		for int(*ip) >= len(h.pos[p]) {
			h.pos[p] = append(h.pos[p], -1)
		}
		h.pos[p][*ip] = int32(len(h.seq[p]))
		h.seq[p] = append(h.seq[p], *ip)
	}
}

// Restart forgets what p delivered: a recovered process that rejoins is a
// fresh incarnation that delivers the group's prefix again, so integrity
// and order hold per incarnation.
func (h *History) Restart(p PID) {
	h.seq[p] = h.seq[p][:0]
	for i := range h.pos[p] {
		h.pos[p][i] = -1
	}
}

// Check asserts the clauses over the processes live reports (nil will do
// for Order alone) and returns every violation found so far, integrity's
// included, as one error; nil when there is none.
func (h *History) Check(clauses Clause, live func(PID) bool) error {
	if clauses&Order != 0 {
		// One pairwise pass: walking p's sequence, the positions of the ids
		// q shares with it must rise. Each pair reports at most once.
		for p := range h.seq {
			for q := p + 1; q < len(h.seq); q++ {
				last := int32(-1)
				for _, i := range h.seq[p] {
					if !h.delivered(PID(q), i) {
						continue
					}
					if h.pos[q][i] < last {
						h.violate("order: p%d and p%d deliver %v and an earlier shared id in opposite orders", p, q, h.ids[i])
						break
					}
					last = h.pos[q][i]
				}
			}
		}
	}
	if clauses&Prefix != 0 {
		var ref []int32 // the longest sequence
		for p, seq := range h.seq {
			if live(PID(p)) && len(seq) > len(ref) {
				ref = seq
			}
		}
		for p, seq := range h.seq {
			for k, i := range seq {
				if live(PID(p)) && i != ref[k] {
					h.violate("prefix: p%d delivered %v at %d, the longest sequence %v", p, h.ids[i], k, h.ids[ref[k]])
					break
				}
			}
		}
	}
	if clauses&Agreement != 0 {
		h.reach(live, "agreement", func(i int32) bool {
			return slices.ContainsFunc(h.pos, func(pos []int32) bool { return int(i) < len(pos) && pos[i] >= 0 })
		})
	}
	if clauses&Validity != 0 {
		h.reach(live, "validity", func(i int32) bool { return live(h.ids[i].Origin) })
	}
	if clauses&Destinations != 0 {
		h.reach(live, "destinations", func(int32) bool { return true })
	}
	return h.Err()
}

// reach reports, for every live p, the first id addressed to p and owed
// to it by must that p has not delivered.
func (h *History) reach(live func(PID) bool, clause string, must func(i int32) bool) {
	for p := range h.seq {
		for i := int32(0); live(PID(p)) && int(i) < len(h.ids); i++ {
			if !h.delivered(PID(p), i) && h.destined(i, PID(p)) && must(i) {
				h.violate("%s: p%d never delivered %v (delivered %d of %d)", clause, p, h.ids[i], len(h.seq[p]), len(h.ids))
				break
			}
		}
	}
}

// Err returns the violations found so far as one error, nil when there is
// none.
func (h *History) Err() error {
	if h.count == 0 {
		return nil
	}
	return fmt.Errorf("%d specification violations: %s", h.count, strings.Join(h.findings, "; "))
}
