package experiment

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
)

// planSamples and loadSamples hold one event per kind with every field
// set, for TestEventKindsRoundTrip: a kind added to planKinds or loadKinds
// without a sample here fails that test.
var (
	planSamples = map[string]PlanEvent{
		"crash":     Crash{At: time.Second, P: 2},
		"recover":   Recover{At: 2 * time.Second, P: 2},
		"suspect":   SuspicionBurst{At: time.Second, P: 1, For: time.Millisecond, By: []proto.PID{0, 3}},
		"partition": Partition{At: time.Second, Groups: [][]proto.PID{{0, 1}, {2}}},
		"heal":      Heal{At: 3 * time.Second},
		"link":      LinkFault{At: time.Second, From: 1, To: 2, Loss: 0.25, ExtraDelay: time.Millisecond},
	}
	loadSamples = map[string]LoadEvent{
		"rate":   RateChange{At: time.Second, Sender: AllSenders, Rate: 300},
		"burst":  Burst{At: time.Second, Sender: 2, Factor: 4, For: time.Millisecond},
		"mute":   Mute{At: time.Second, Sender: 3},
		"unmute": Unmute{At: 2 * time.Second, Sender: 3},
		"pause":  Pause{At: time.Second},
		"resume": Resume{At: 2 * time.Second},
	}
)

// TestEventKindsRoundTrip walks the two kind tables — the only lists of
// event types — and holds every kind to the codec's contract: it has a
// sample, the sample and its type's zero value survive encode → decode,
// the zero value encodes as its bare kind, and no event belongs to both
// timelines. An event type cannot be added without passing through here.
func TestEventKindsRoundTrip(t *testing.T) {
	kindsRoundTrip(t, "plan", planKinds, planSamples, PlanEvent.planEvent)
	kindsRoundTrip(t, "load", loadKinds, loadSamples, LoadEvent.loadEvent)
	for kind, ev := range planSamples {
		if _, both := any(ev).(LoadEvent); both {
			t.Errorf("plan event %q (%T) is also a LoadEvent", kind, ev)
		}
	}
	for kind, ev := range loadSamples {
		if _, both := any(ev).(PlanEvent); both {
			t.Errorf("load event %q (%T) is also a PlanEvent", kind, ev)
		}
	}
}

func kindsRoundTrip[E event](t *testing.T, what string, kinds map[string]func([]byte) (E, error), samples map[string]E, kindOf func(E) string) {
	t.Helper()
	if len(samples) != len(kinds) {
		t.Errorf("%s: %d samples for %d kinds", what, len(samples), len(kinds))
	}
	for kind := range kinds {
		sample, ok := samples[kind]
		if !ok {
			t.Errorf("%s kind %q has no sample", what, kind)
			continue
		}
		if got := kindOf(sample); got != kind {
			t.Errorf("%s sample %q is a %T, which calls itself %q", what, kind, sample, got)
		}
		zero := reflect.Zero(reflect.TypeOf(sample)).Interface().(E)
		if got := string(encodeEvents([]E{zero}, kindOf)[0]); got != `{"kind":"`+kind+`"}` {
			t.Errorf("%s kind %q: zero value encodes as %s, want the bare kind", what, kind, got)
		}
		for _, ev := range []E{sample, zero} {
			back, err := decodeEvents(what, encodeEvents([]E{ev}, kindOf), kinds)
			if err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], ev) {
				t.Errorf("%s kind %q: %#v came back as %#v (err %v)", what, kind, ev, back, err)
			}
		}
	}
}

// FuzzEventCodec feeds arbitrary bytes to the event codec the way a trace
// header's "plan" and "load" arrays reach it. Decoding must never panic,
// and whatever decodes and is valid on an 8-process system must re-encode
// to a canonical form that decodes to the same events and is a fixed
// point of the codec. Topology and group specs stay out of this target:
// their generators allocate by n.
func FuzzEventCodec(f *testing.F) {
	for _, header := range []string{goldenSteadyHeader, goldenTransientHeader} {
		var h struct{ Plan, Load json.RawMessage }
		if err := json.Unmarshal([]byte(strings.TrimPrefix(header, "C ")), &h); err != nil {
			f.Fatal(err)
		}
		for _, arr := range []json.RawMessage{h.Plan, h.Load} {
			if arr != nil {
				f.Add([]byte(arr))
			}
		}
	}
	for _, malformed := range []string{
		`[{"kind":"meteor","at":5}]`,                   // unknown kind
		`[{"kind":"precrash","p":1}]`,                  // the retired kind
		`[{"at":5}]`,                                   // no kind
		`{"kind":"crash"}`,                             // not an array
		`[7]`,                                          // not an object
		`[{"kind":"crash","p":"one"}]`,                 // wrong field type
		`[{"kind":"pause","at":1.5}]`,                  // fractional instant
		`[{"kind":"rate","rate":1e999}]`,               // out of range
		`[{"kind":"suspect","p":1,"by":[]}]`,           // decodes, invalid
		`[{"kind":"crash","p":8}]`,                     // decodes, invalid at n = 8
		`[{"kind":"partition","groups":[]}]`,           // empty list reads back nil
		`[{"kind":"link","to":1,"loss":-0}]`,           // negative zero
		`[{"KIND":"heal","AT":3,"extra":[1,{"a":2}]}]`, // case-folded and unknown keys
		`[{"kind":"suspect","p":1,"by":[1]}]`,          // decodes, invalid: a self-suspicion
	} {
		f.Add([]byte(malformed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var raws []json.RawMessage
		if json.Unmarshal(data, &raws) != nil {
			return // the header itself would not have parsed
		}
		fuzzTimeline(t, "plan", raws, planKinds, PlanEvent.planEvent)
		fuzzTimeline(t, "load", raws, loadKinds, LoadEvent.loadEvent)
	})
}

func fuzzTimeline[E event](t *testing.T, what string, raws []json.RawMessage, kinds map[string]func([]byte) (E, error), kindOf func(E) string) {
	events, err := decodeEvents(what, raws, kinds)
	if err != nil || validate(what, events, 8) != nil {
		return
	}
	canon := encodeEvents(events, kindOf)
	back, err := decodeEvents(what, canon, kinds)
	if err != nil || len(back) != len(events) {
		t.Fatalf("%s: canonical form %s does not decode: %d events, err %v", what, canon, len(back), err)
	}
	for i := range events {
		// Equal as values, or — a partition into no groups reads back nil
		// where it was empty — in everything an event shows.
		a, b := events[i], back[i]
		if !reflect.DeepEqual(a, b) && (a.When() != b.When() || a.String() != b.String()) {
			t.Fatalf("%s event %d: %#v reads back from %s as %#v", what, i, a, canon[i], b)
		}
	}
	if again := encodeEvents(back, kindOf); !reflect.DeepEqual(again, canon) {
		t.Fatalf("%s: canonical form is no fixed point: %s re-encodes as %s", what, canon, again)
	}
}
