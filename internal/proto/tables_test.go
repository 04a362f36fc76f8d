package proto

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// checkWindow verifies the ring's own invariants: a power-of-two length
// that covers the range, and the zero value in every slot whose key lies
// outside [Lo, Hi) — the property that keeps a forgotten body collectable.
func checkWindow[T comparable](t *testing.T, w *Window[T]) {
	t.Helper()
	size := uint64(len(w.ring))
	if size != 0 && bits.OnesCount64(size) != 1 {
		t.Fatalf("ring length %d is not a power of two", size)
	}
	if w.hi < w.lo || w.hi-w.lo > size {
		t.Fatalf("range [%d, %d) does not fit a ring of %d", w.lo, w.hi, size)
	}
	live := make([]bool, size)
	for k := w.lo; k < w.hi; k++ {
		live[k&(size-1)] = true
	}
	var zero T
	for i, v := range w.ring {
		if !live[i] && v != zero {
			t.Fatalf("ring[%d] = %v outside [%d, %d): a forgotten slot was not zeroed", i, v, w.lo, w.hi)
		}
	}
}

// TestWindowAgainstMap drives a Window and a map-plus-bounds model with
// the same seeded random At/Get/Advance sequence and compares them after
// every step: the range, every slot inside it, nil outside it, and the
// zeroing of what Advance passed.
func TestWindowAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w Window[int]
		ref := make(map[uint64]int)
		var lo, hi uint64
		if seed%2 == 0 {
			// Start away from zero so the range can extend downwards.
			lo, hi = 1000, 1000
			w.Advance(1000)
		}
		for step := 1; step <= 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // At: mostly just above Hi, sometimes a gap, sometimes below Lo
				k := lo + uint64(rng.Intn(int(hi-lo)+4))
				if back := uint64(rng.Intn(6)); op == 0 && back <= lo {
					k = lo - back
				}
				if lo == hi && k < lo {
					lo, hi = k, k
				}
				lo, hi = min(lo, k), max(hi, k+1)
				p := w.At(k)
				if *p != ref[k] {
					t.Fatalf("seed %d step %d: At(%d) = %d, want %d", seed, step, k, *p, ref[k])
				}
				*p, ref[k] = step, step
			case op < 8: // Advance: inside the range, to Hi, or past it
				x := lo + uint64(rng.Intn(int(hi-lo)+3))
				for k := range ref {
					if k < x {
						delete(ref, k)
					}
				}
				lo, hi = max(lo, x), max(hi, x)
				w.Advance(x)
			default: // Advance to a lower bound: a no-op
				w.Advance(lo / 2)
			}
			if w.Lo() != lo || w.Hi() != hi {
				t.Fatalf("seed %d step %d: range [%d, %d), want [%d, %d)", seed, step, w.Lo(), w.Hi(), lo, hi)
			}
			checkWindow(t, &w)
			for k := lo - min(lo, 3); k < hi+3; k++ {
				p := w.Get(k)
				switch inside := k >= lo && k < hi; {
				case inside && (p == nil || *p != ref[k]):
					t.Fatalf("seed %d step %d: Get(%d) = %v, want %d", seed, step, k, p, ref[k])
				case !inside && p != nil:
					t.Fatalf("seed %d step %d: Get(%d) outside [%d, %d) is not nil", seed, step, k, lo, hi)
				}
			}
		}
	}
}

// idOp is one step of an IDTable script; three bytes of fuzz input decode
// to one.
type idOp struct {
	kind   byte // see the constants below, taken modulo opKinds
	origin byte // modulo 4
	seq    byte // modulo 64, plus 1: sequence numbers start at 1
}

const (
	opPut         = iota // store the step number under the id
	opGet                // look the id up
	opDelete             // remove the id
	opEach               // full iteration equals the model's sorted keys
	opEachDelete         // delete every entry whose seq ≡ op.seq (mod 3) from inside Each
	opEachFrom           // one origin's entries, in order
	opDeleteFront        // delete the origin's lowest entry: the FIFO pattern of the stacks
	opKinds
)

func (o idOp) id() MsgID { return MsgID{Origin: PID(o.origin % 4), Seq: uint64(o.seq%64) + 1} }

// sortedIDs returns the model's keys, optionally of one origin only, in
// the canonical order the table must iterate in.
func sortedIDs(ref map[MsgID]int, origin PID, all bool) []MsgID {
	ids := make([]MsgID, 0, len(ref))
	for id := range ref {
		if all || id.Origin == origin {
			ids = append(ids, id)
		}
	}
	SortMsgIDs(ids)
	return ids
}

// runIDTableOps applies ops to an IDTable and to a map, comparing the two
// after every step — no hole may keep a value, or a deleted body would
// stay referenced from the ring — then empties the table from inside Each.
func runIDTableOps(t *testing.T, ops []idOp) {
	t.Helper()
	var tab IDTable[int]
	ref := make(map[MsgID]int)
	visit := func(each func(func(MsgID, *int)), want []MsgID, step int, del func(MsgID) bool) {
		var got []MsgID
		each(func(id MsgID, v *int) {
			if *v != ref[id] {
				t.Fatalf("step %d: iteration handed %v = %d, want %d", step, id, *v, ref[id])
			}
			got = append(got, id)
			if del != nil && del(id) {
				tab.Delete(id)
				delete(ref, id)
			}
		})
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: iterated %v, want %v", step, got, want)
		}
	}
	for i, op := range ops {
		step, id := i+1, op.id()
		switch op.kind % opKinds {
		case opPut:
			tab.Put(id, step)
			ref[id] = step
		case opGet:
			v, want := tab.Get(id), ref[id]
			if _, ok := ref[id]; ok != (v != nil) || (ok && *v != want) {
				t.Fatalf("step %d: Get(%v) = %v, model has %d (%v)", step, id, v, want, ok)
			}
		case opDelete:
			tab.Delete(id)
			delete(ref, id)
		case opEach:
			visit(tab.Each, sortedIDs(ref, 0, true), step, nil)
		case opEachDelete:
			// Every entry is still visited, in order, although the walk
			// deletes under itself and rows advance past the holes.
			visit(tab.Each, sortedIDs(ref, 0, true), step, func(d MsgID) bool { return d.Seq%3 == uint64(op.seq%3) })
		case opEachFrom:
			visit(func(fn func(MsgID, *int)) { tab.EachFrom(id.Origin, fn) }, sortedIDs(ref, id.Origin, false), step, nil)
		case opDeleteFront:
			if ids := sortedIDs(ref, id.Origin, false); len(ids) > 0 {
				tab.Delete(ids[0])
				delete(ref, ids[0])
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, model has %d", step, tab.Len(), len(ref))
		}
		for o := range tab.rows {
			row := &tab.rows[o]
			checkWindow(t, row)
			if lo := row.Get(row.Lo()); lo != nil && !lo.ok {
				t.Fatalf("step %d: row %d starts at a hole (%d): Delete did not advance past it", step, o, row.Lo())
			}
			for i, s := range row.ring {
				if !s.ok && s.v != 0 {
					t.Fatalf("step %d: row %d keeps %d in the hole at slot %d: a deleted body would stay pinned", step, o, s.v, i)
				}
			}
		}
	}
	visit(tab.Each, sortedIDs(ref, 0, true), len(ops)+1, func(MsgID) bool { return true })
	if tab.Len() != 0 {
		t.Fatalf("emptied table has Len %d", tab.Len())
	}
	for o := range tab.rows {
		if row := &tab.rows[o]; row.Lo() != row.Hi() {
			t.Fatalf("emptied row %d still spans [%d, %d)", o, row.Lo(), row.Hi())
		}
	}
}

// idTableScripts are the patterns the stacks produce, by hand: they run
// as test cases and seed the fuzzer.
var idTableScripts = map[string][]idOp{
	"in order": {
		{opPut, 0, 0}, {opPut, 0, 1}, {opPut, 0, 2}, {opEach, 0, 0},
		{opDelete, 0, 0}, {opDelete, 0, 1}, {opDelete, 0, 2}, {opEach, 0, 0},
	},
	"reverse": {
		{opPut, 1, 9}, {opPut, 1, 8}, {opPut, 1, 7}, {opPut, 1, 6}, {opEachFrom, 1, 0},
		{opDelete, 1, 9}, {opDelete, 1, 8}, {opDelete, 1, 7}, {opDelete, 1, 6}, {opEach, 0, 0},
	},
	"delete from the middle": {
		{opPut, 2, 0}, {opPut, 2, 1}, {opPut, 2, 2}, {opPut, 2, 3}, {opPut, 2, 4},
		{opDelete, 2, 2}, {opDelete, 2, 1}, {opEach, 0, 0}, {opGet, 2, 2},
		{opDelete, 2, 0}, {opEachFrom, 2, 0}, {opGet, 2, 3},
	},
	"delete during Each": {
		{opPut, 0, 0}, {opPut, 0, 1}, {opPut, 0, 2}, {opPut, 1, 0}, {opPut, 1, 1}, {opPut, 3, 5},
		{opEachDelete, 0, 0}, {opEachDelete, 0, 1}, {opEachDelete, 0, 2}, {opEach, 0, 0},
	},
	"re-entry below Lo": {
		{opPut, 0, 4}, {opPut, 0, 5}, {opDelete, 0, 4}, // the row now starts at seq 6
		{opPut, 0, 1}, {opEachFrom, 0, 0}, {opGet, 0, 4}, {opGet, 0, 1}, {opPut, 0, 0}, {opEach, 0, 0},
	},
	"emptied and restarted higher": {
		{opPut, 3, 2}, {opDelete, 3, 2}, {opPut, 3, 60}, {opGet, 3, 2}, {opEach, 0, 0},
		{opDelete, 3, 60}, {opPut, 3, 1}, {opEach, 0, 0},
	},
	"fifo far along": {
		{opPut, 0, 0}, {opDeleteFront, 0, 0}, {opPut, 0, 1}, {opDeleteFront, 0, 0}, {opPut, 0, 2},
		{opPut, 0, 3}, {opDeleteFront, 0, 0}, {opDeleteFront, 0, 0}, {opPut, 0, 63}, {opEach, 0, 0},
	},
	"replace": {
		{opPut, 1, 3}, {opPut, 1, 3}, {opGet, 1, 3}, {opEach, 0, 0}, {opDelete, 1, 3}, {opDelete, 1, 3},
	},
}

// TestIDTableAgainstMap runs the hand-written scripts and seeded random
// Put/Get/Delete/Each sequences against a map plus SortMsgIDs.
func TestIDTableAgainstMap(t *testing.T) {
	for name, ops := range idTableScripts {
		t.Run(name, func(t *testing.T) { runIDTableOps(t, ops) })
	}
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]idOp, 300)
			for i := range ops {
				// Half the steps put or delete at the front, the traffic
				// of a process; the rest is anything.
				ops[i] = idOp{kind: byte(rng.Intn(opKinds)), origin: byte(rng.Intn(4)), seq: byte(rng.Intn(64))}
				if rng.Intn(2) == 0 {
					ops[i].kind = []byte{opPut, opDeleteFront}[rng.Intn(2)]
				}
			}
			runIDTableOps(t, ops)
		}
	})
}

// TestIDTableRowStaysSmallInOrder: entries that come and go in order keep
// a row at its first ring however far the sequence numbers run — the
// steady state of every table in the FD stack.
func TestIDTableRowStaysSmallInOrder(t *testing.T) {
	var tab IDTable[any]
	for seq := uint64(1); seq <= 100000; seq++ {
		tab.Put(MsgID{Origin: 2, Seq: seq}, seq)
		if seq > 3 {
			tab.Delete(MsgID{Origin: 2, Seq: seq - 3})
		}
	}
	if n := len(tab.rows[2].ring); n != minRing {
		t.Fatalf("ring grew to %d slots for 3 live entries", n)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}
}

// FuzzIDTable decodes three bytes per step into the same operations and
// holds the table to the map model.
func FuzzIDTable(f *testing.F) {
	for _, ops := range idTableScripts {
		var data []byte
		for _, op := range ops {
			data = append(data, op.kind, op.origin, op.seq)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]idOp, 0, len(data)/3)
		for ; len(data) >= 3; data = data[3:] {
			ops = append(ops, idOp{kind: data[0], origin: data[1], seq: data[2]})
		}
		runIDTableOps(t, ops)
	})
}

// TestIDTableCarvesFirstRings: a row that outgrows the first ring it was
// carved from a shared slab zeroes it, pinning nothing in the slab its
// neighbours keep alive, and leaves the neighbours' entries alone.
func TestIDTableCarvesFirstRings(t *testing.T) {
	var tab IDTable[any]
	for o := 0; o < 4; o++ {
		tab.Put(MsgID{Origin: PID(o), Seq: 1}, o)
	}
	carved := tab.rows[2].ring
	for seq := uint64(2); seq <= 2*minRing; seq++ {
		tab.Put(MsgID{Origin: 2, Seq: seq}, seq)
	}
	for i, s := range carved {
		if s != (idSlot[any]{}) {
			t.Fatalf("outgrown carving keeps %v at slot %d", s, i)
		}
	}
	for o := 0; o < 4; o++ {
		if v := tab.Get(MsgID{Origin: PID(o), Seq: 1}); v == nil || *v != o {
			t.Fatalf("origin %d's first entry = %v after a neighbour grew", o, v)
		}
	}
}
