package main

import (
	"strings"
	"testing"

	"repro"
)

func id(origin int, seq uint64) repro.MessageID {
	return repro.MessageID{Origin: repro.ProcessID(origin), Seq: seq}
}

// feed broadcasts ids a, b, c and delivers the given per-process
// sequences.
func feed(seqs ...[]repro.MessageID) *specChecker {
	c := newSpecChecker(len(seqs))
	for _, m := range []repro.MessageID{id(0, 1), id(1, 1), id(2, 1)} {
		c.broadcast(m)
	}
	for p, seq := range seqs {
		for _, m := range seq {
			c.deliver(p, m)
		}
	}
	return c
}

func TestSpecCheckerPlantedFaults(t *testing.T) {
	a, b, c := id(0, 1), id(1, 1), id(2, 1)
	cases := []struct {
		name string
		seqs [][]repro.MessageID
		want string // substring of the violation, "" for a clean run
	}{
		{"clean", [][]repro.MessageID{{a, b, c}, {a, b, c}, {a, b, c}}, ""},
		{"clean with gaps", [][]repro.MessageID{{a, c}, {b, c}, {a, b}}, ""},
		{"duplicated delivery", [][]repro.MessageID{{a, b, a}, {a, b}}, "twice"},
		{"opposite orders", [][]repro.MessageID{{a, b, c}, {a, c, b}}, "opposite orders"},
		{"never broadcast", [][]repro.MessageID{{a, id(3, 9)}, {a}}, "never broadcast"},
	}
	for _, tc := range cases {
		chk := feed(tc.seqs...)
		n := chk.finish()
		switch {
		case tc.want == "" && n != 0:
			t.Errorf("%s: %d violations in a clean run: %v", tc.name, n, chk.violations)
		case tc.want != "" && n == 0:
			t.Errorf("%s: not reported", tc.name)
		case tc.want != "" && !strings.Contains(chk.violations[0], tc.want):
			t.Errorf("%s: reported as %q, want %q", tc.name, chk.violations[0], tc.want)
		}
	}
}

// The faults -inject plants must each be caught, or the command's own
// failure path proves nothing.
func TestPlantedFaultsAreCaught(t *testing.T) {
	a, b := id(0, 1), id(1, 1)
	for _, fault := range []string{"dup", "order", "phantom"} {
		chk := feed([]repro.MessageID{a, b}, []repro.MessageID{a, b})
		plant(chk, fault)
		if chk.finish() == 0 {
			t.Errorf("planted %q passes the checker", fault)
		}
	}
}

func TestRestartStartsAFreshIncarnation(t *testing.T) {
	a, b := id(0, 1), id(1, 1)
	chk := feed([]repro.MessageID{a, b}, []repro.MessageID{a, b})
	chk.restart(1)
	chk.deliver(1, a)
	chk.deliver(1, b)
	if n := chk.finish(); n != 0 {
		t.Errorf("re-delivery after a restart reported: %v", chk.violations)
	}
}

func TestPayloadKind(t *testing.T) {
	cases := []struct {
		name, kind string
		k          int
		lay        layer
	}{
		{"MsgAck[k=12]", "MsgAck", 12, layConsensus},
		{"g3{MsgPropose[k=7]}", "MsgPropose", 7, layConsensus},
		{"g0{rbcast.Msg}", "rbcast.Msg", 0, layRbcast},
		{"rbcast.Msg", "rbcast.Msg", 0, layRbcast},
		{"tsprop 1:4 g0@9", "tsprop", 0, layRouter},
		{"advance@17", "advance", 0, layRouter},
		{"seqabcast.MsgData", "seqabcast.MsgData", 0, laySeqabcast},
		{"gm.MsgViewChange", "gm.MsgViewChange", 0, layGM},
		{"hbfd.Msg", "hbfd.Msg", 0, layHeartbeat},
		{"CatchUpReply[3..9 snap]", "CatchUpReply", 0, layCatchUp},
		{"gossip", "gossip", 0, layOther},
	}
	for _, tc := range cases {
		kind, k := payloadKind(tc.name)
		if kind != tc.kind || k != tc.k || layerOf(kind) != tc.lay {
			t.Errorf("payloadKind(%q) = %q, %d, layer %d; want %q, %d, layer %d", tc.name, kind, k, layerOf(kind), tc.kind, tc.k, tc.lay)
		}
	}
}
