package main

import (
	"fmt"

	"repro"
)

// specChecker checks one replication against the atomic broadcast
// specification as the paper states it:
//
//   - uniform integrity: no process delivers an id twice, and every
//     delivered id was broadcast;
//   - total order: any two processes deliver the ids they share in the
//     same relative order (in groups mode this is the pairwise-consistency
//     clause of atomic multicast).
//
// Validity (nothing undelivered, no divergence) is read from the Result
// the run returns, not from here. Feed the checker every broadcast and
// delivery in the order they happen, then call finish.
type specChecker struct {
	// index numbers the broadcast ids densely, in broadcast order.
	index map[repro.MessageID]int32
	ids   []repro.MessageID
	// seq[p] is process p's delivery sequence; pos[p][i] is the position
	// of id number i in it, or -1 while p has not delivered it.
	seq [][]int32
	pos [][]int32
	// violations holds the first few findings; count all of them.
	violations []string
	count      int
}

func newSpecChecker(n int) *specChecker {
	return &specChecker{
		index: make(map[repro.MessageID]int32),
		seq:   make([][]int32, n),
		pos:   make([][]int32, n),
	}
}

func (c *specChecker) violate(format string, args ...any) {
	c.count++
	if len(c.violations) < 5 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

func (c *specChecker) broadcast(id repro.MessageID) {
	if _, dup := c.index[id]; dup {
		c.violate("id %v broadcast twice", id)
		return
	}
	c.index[id] = int32(len(c.ids))
	c.ids = append(c.ids, id)
}

func (c *specChecker) deliver(p int, id repro.MessageID) {
	i, ok := c.index[id]
	if !ok {
		c.violate("p%d delivered %v, which was never broadcast", p, id)
		return
	}
	pos := c.pos[p]
	for int(i) >= len(pos) {
		pos = append(pos, -1)
	}
	c.pos[p] = pos
	if pos[i] >= 0 {
		c.violate("p%d delivered %v twice", p, id)
		return
	}
	pos[i] = int32(len(c.seq[p]))
	c.seq[p] = append(c.seq[p], i)
}

// idAt returns the i-th id process p delivered.
func (c *specChecker) idAt(p, i int) repro.MessageID { return c.ids[c.seq[p][i]] }

// restart forgets what p delivered: a recovered GM process is a fresh
// incarnation that learns the delivered prefix again through state
// transfer, so integrity and order hold per incarnation.
func (c *specChecker) restart(p int) {
	c.seq[p] = c.seq[p][:0]
	for i := range c.pos[p] {
		c.pos[p][i] = -1
	}
}

// finish runs the pairwise total-order check and returns the number of
// violations found over the whole replication.
func (c *specChecker) finish() int {
	for p := range c.seq {
		for q := p + 1; q < len(c.seq); q++ {
			last := int32(-1)
			for _, i := range c.seq[p] {
				if int(i) >= len(c.pos[q]) || c.pos[q][i] < 0 {
					continue
				}
				if c.pos[q][i] < last {
					c.violate("p%d and p%d deliver %v and an earlier shared id in opposite orders", p, q, c.ids[i])
					break
				}
				last = c.pos[q][i]
			}
		}
	}
	return c.count
}
