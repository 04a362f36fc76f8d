package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
)

// traceSweep is a small two-point grid — abstract QoS model versus the
// concrete heartbeat detector — used by the trace round-trip tests.
func traceSweep(tr *Trace) Sweep {
	return Sweep{
		Base: Config{
			Algorithm:    FD,
			N:            3,
			Throughput:   50,
			Seed:         7,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        5 * time.Second,
			Replications: 2,
			Observers:    []ObserverFactory{tr.Observer},
		},
		Detectors: []*Heartbeat{nil, {Interval: 10 * time.Millisecond, Timeout: 30 * time.Millisecond}},
	}
}

// TestTraceReplayRoundTrip is the acceptance path: a sweep that includes
// a heartbeat-FD point runs end to end with the trace observer, and the
// resulting trace replays to the same delivery digest for every
// replication.
func TestTraceReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	var r Runner
	res := r.Sweep(traceSweep(tr))
	if len(res) != 2 || !res[0].Stable || !res[1].Stable {
		t.Fatalf("sweep failed: %+v", res)
	}
	digests := tr.Digests()
	if len(digests) != 4 { // 2 points x 2 replications
		t.Fatalf("got %d digests, want 4", len(digests))
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(tr.Digests()) != 0 {
		t.Fatal("Flush did not drop the buffers")
	}

	text := buf.String()
	for _, marker := range []string{"C {", "\nB ", "\nN wire ", "\nD ", "\nE "} {
		if !strings.Contains(text, marker) {
			t.Fatalf("trace lacks %q records:\n%.400s", marker, text)
		}
	}

	// The second input is the same trace as a build with the since-deleted
	// intra-simulation parallel mode recorded it: two more header keys,
	// which replay must keep accepting.
	legacy := strings.ReplaceAll(text, "C {", `C {"parallelSim":true,"simWorkers":4,`)
	if n := strings.Count(legacy, `"parallelSim":true`); n != 4 {
		t.Fatalf("legacy trace carries %d rewritten headers, want 4", n)
	}
	for name, trace := range map[string]string{"recorded": text, "legacy header": legacy} {
		results, err := Replay(strings.NewReader(trace))
		if err != nil {
			t.Fatalf("%s: Replay: %v", name, err)
		}
		if len(results) != 4 {
			t.Fatalf("%s: replayed %d replications, want 4", name, len(results))
		}
		for i, rr := range results {
			if !rr.Match {
				t.Fatalf("%s: replication (point %d, rep %d) does not replay: recorded %016x, replayed %016x",
					name, rr.Point, rr.Rep, rr.Recorded, rr.Replayed)
			}
			if rr.Recorded != digests[i].Digest || rr.Point != digests[i].Point || rr.Rep != digests[i].Rep {
				t.Fatalf("%s: replay %d = %+v, digest listing said %+v", name, i, rr, digests[i])
			}
		}
	}
}

// TestTraceDeterministicAcrossWorkers pins the flushed trace bytes to
// the same content at any worker count.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []byte {
		var buf bytes.Buffer
		tr := NewTrace(&buf)
		(&Runner{Workers: workers}).Sweep(traceSweep(tr))
		if err := tr.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(1), run(5)) {
		t.Fatal("trace bytes differ between 1 and 5 workers")
	}
}

// TestTraceReplayTransient records and replays the crash-transient
// scenario, whose workload and fault schedule differ from steady state.
func TestTraceReplayTransient(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	cfg := TransientConfig{
		Config: Config{
			Algorithm:    GM,
			N:            3,
			Throughput:   30,
			QoS:          fd.QoS{TD: 10 * time.Millisecond},
			Warmup:       300 * time.Millisecond,
			Drain:        8 * time.Second,
			Replications: 2,
			Observers:    []ObserverFactory{tr.Observer},
		},
		Crash:  0,
		Sender: 1,
	}
	res := RunTransient(cfg)
	if res.Lost > 0 {
		t.Fatalf("lost probes: %+v", res)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if !strings.Contains(buf.String(), `"kind":"transient"`) {
		t.Fatalf("transient trace not marked as such:\n%.200s", buf.String())
	}
	results, err := Replay(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("replayed %d replications, want 2", len(results))
	}
	for _, rr := range results {
		if !rr.Match {
			t.Fatalf("transient replication rep %d does not replay: %+v", rr.Rep, rr)
		}
	}
}

// TestReplayDetectsTampering flips one digest and expects the replay to
// report a mismatch rather than silently agree.
func TestReplayDetectsTampering(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	cfg := Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   20,
		Warmup:       200 * time.Millisecond,
		Measure:      500 * time.Millisecond,
		Drain:        5 * time.Second,
		Replications: 1,
		Observers:    []ObserverFactory{tr.Observer},
	}
	RunSteady(cfg)
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tampered := []byte(buf.String())
	i := bytes.Index(tampered, []byte("\nE ")) + len("\nE ")
	if tampered[i] == '0' {
		tampered[i] = '1'
	} else {
		tampered[i] = '0'
	}
	results, err := Replay(bytes.NewReader(tampered))
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(results) != 1 || results[0].Match {
		t.Fatalf("tampered digest replayed as a match: %+v", results)
	}
}

// TestReplayRejectsTruncatedTrace checks the error paths: a trace cut
// mid-replication and an orphan digest record both fail loudly.
func TestReplayRejectsTruncatedTrace(t *testing.T) {
	if _, err := Replay(strings.NewReader(`C {"kind":"steady","alg":1,"n":3,"throughput":10,"seed":1,"warmup":1,"measure":1,"drain":1,"replications":1}` + "\n")); err == nil {
		t.Fatal("truncated trace did not error")
	}
	if _, err := Replay(strings.NewReader("E 0000000000000000\n")); err == nil {
		t.Fatal("orphan E record did not error")
	}
	if _, err := Replay(strings.NewReader("C not-json\n")); err == nil {
		t.Fatal("bad header did not error")
	}
}
