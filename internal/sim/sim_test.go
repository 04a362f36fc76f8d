package sim

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("new engine Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleRunsInTimestampOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(Time(30), func() { got = append(got, 3) })
	e.Schedule(Time(10), func() { got = append(got, 1) })
	e.Schedule(Time(20), func() { got = append(got, 2) })
	n := e.Run()
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30) {
		t.Fatalf("Now() = %v after run, want 30", e.Now())
	}
}

func TestSameInstantEventsRunInScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(5), func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order %v, want ascending", got)
		}
	}
}

func TestAfterSchedulesRelativeToNow(t *testing.T) {
	e := New()
	var fired Time
	e.Schedule(Time(100), func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != Time(150) {
		t.Fatalf("After fired at %v, want 150", fired)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	e := New()
	ran := false
	ev := e.Schedule(Time(10), func() { ran = true })
	ev.Cancel()
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestCancelRemovesFromQueueEagerly(t *testing.T) {
	e := New()
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.Schedule(Time(i*10), func() {}))
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending() = %d, want 10", e.Pending())
	}
	// Cancel every other event, including the root and the last leaf: the
	// queue must shrink immediately, not at pop time.
	for i := 0; i < 10; i += 2 {
		evs[i].Cancel()
		evs[i].Cancel() // double cancel is a no-op
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending() = %d after cancelling 5 of 10, want 5", e.Pending())
	}
	if n := e.Run(); n != 5 {
		t.Fatalf("Run executed %d events, want 5", n)
	}
	if e.Now() != Time(90) {
		t.Fatalf("Now() = %v, want 90", e.Now())
	}
}

// TestCancelReleasesClosurePromptly is the closure-retention regression
// test: cancelling an event must free whatever its callback captured right
// away. Before eager removal, a cancelled long-TMR failure-detector timer
// pinned its closure (and everything reachable from it) until the distant
// timestamp was reached.
func TestCancelReleasesClosurePromptly(t *testing.T) {
	e := New()
	type ballast struct{ buf []byte }
	collected := make(chan struct{})
	ev := func() *Event {
		p := &ballast{buf: make([]byte, 1<<20)}
		runtime.SetFinalizer(p, func(*ballast) { close(collected) })
		// Far-future timer, as a TMR mistake timer would be.
		return e.Schedule(Time(0).Add(time.Hour), func() { _ = p.buf })
	}()
	ev.Cancel()
	waitCollected(t, collected, "closure captured by a cancelled event")
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0", e.Pending())
	}
}

// TestFiredEventReleasesClosure: a fired event whose handle is still
// retained (the workload generator keeps its last timer, for example) must
// not pin the callback either.
func TestFiredEventReleasesClosure(t *testing.T) {
	e := New()
	type ballast struct{ buf []byte }
	collected := make(chan struct{})
	ev := func() *Event {
		p := &ballast{buf: make([]byte, 1<<20)}
		runtime.SetFinalizer(p, func(*ballast) { close(collected) })
		return e.Schedule(Time(1), func() { _ = p.buf })
	}()
	e.Run()
	waitCollected(t, collected, "closure captured by a fired event with a retained handle")
	_ = ev
}

// TestRetainedHandleDoesNotPinEngine: a fired (or cancelled) event whose
// handle outlives the simulation must not keep the whole engine — heap
// and free list included — reachable through its back-pointer.
func TestRetainedHandleDoesNotPinEngine(t *testing.T) {
	collected := make(chan struct{})
	handle := func() *Event {
		e := New()
		runtime.SetFinalizer(e, func(*Engine) { close(collected) })
		ev := e.Schedule(Time(1), func() {})
		e.Run()
		return ev
	}()
	waitCollected(t, collected, "engine referenced only by a retained fired-event handle")
	_ = handle
}

// waitCollected GCs until the finalizer on the test ballast runs.
func waitCollected(t *testing.T, collected chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s was never garbage-collected", what)
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := New()
	ran := false
	ev := e.Schedule(Time(20), func() { ran = true })
	e.Schedule(Time(10), func() { ev.Cancel() })
	e.Run()
	if ran {
		t.Fatal("event cancelled at t=10 still ran at t=20")
	}
}

func TestRunUntilStopsAtDeadlineAndAdvancesClock(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	n := e.RunUntil(Time(25))
	if n != 2 {
		t.Fatalf("RunUntil executed %d, want 2", n)
	}
	if e.Now() != Time(25) {
		t.Fatalf("Now() = %v, want 25", e.Now())
	}
	if e.Executed() != 2 || e.Pending() != 2 {
		t.Fatalf("Executed()/Pending() = %d/%d at the deadline, want 2/2", e.Executed(), e.Pending())
	}
	n = e.RunUntil(Time(100))
	if n != 2 {
		t.Fatalf("second RunUntil executed %d, want 2", n)
	}
	if e.Now() != Time(100) {
		t.Fatalf("Now() = %v, want 100", e.Now())
	}
}

func TestRunUntilInclusiveOfDeadline(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(Time(25), func() { ran = true })
	e.RunUntil(Time(25))
	if !ran {
		t.Fatal("event exactly at deadline did not run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.Schedule(Time(100), func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(Time(50), func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.Schedule(Time(1), nil)
}

func TestEventsScheduledDuringRunExecute(t *testing.T) {
	e := New()
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 100 {
			e.After(time.Nanosecond, grow)
		}
	}
	e.Schedule(0, grow)
	e.Run()
	if depth != 100 {
		t.Fatalf("chained scheduling reached depth %d, want 100", depth)
	}
}

func TestZeroDelayAfterRunsAfterCurrentCallback(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(Time(10), func() {
		e.After(0, func() { order = append(order, "deferred") })
		order = append(order, "direct")
	})
	e.Run()
	if len(order) != 2 || order[0] != "direct" || order[1] != "deferred" {
		t.Fatalf("order = %v, want [direct deferred]", order)
	}
}

func TestExecutedCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 7 {
		t.Fatalf("Executed() = %d, want 7", e.Executed())
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(0).Add(1500 * time.Microsecond)
	if got := tm.Milliseconds(); got != 1.5 {
		t.Fatalf("Milliseconds() = %v, want 1.5", got)
	}
	if got := tm.Sub(Time(0).Add(time.Millisecond)); got != 500*time.Microsecond {
		t.Fatalf("Sub = %v, want 500us", got)
	}
	if got := Millis(2.5); got != 2500*time.Microsecond {
		t.Fatalf("Millis(2.5) = %v, want 2.5ms", got)
	}
	if got := Millis(math.Inf(1)); got != time.Duration(math.MaxInt64) {
		t.Fatalf("Millis(+Inf) = %v, want MaxInt64", got)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestRandDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different-seed generators collided %d/100 times", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandFloat64Mean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) produced only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(17)
	const (
		n    = 200000
		mean = 25.0
	)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("exponential mean = %v, want ~%v", got, mean)
	}
}

func TestRandExpZeroMean(t *testing.T) {
	r := NewRand(19)
	for i := 0; i < 100; i++ {
		if v := r.Exp(0); v != 0 {
			t.Fatalf("Exp(0) = %v, want 0", v)
		}
	}
}

func TestRandExpNonNegativeProperty(t *testing.T) {
	f := func(seed uint64, mean float64) bool {
		m := math.Abs(mean)
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			if r.Exp(m) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(99)
	a := parent.Fork("fd")
	b := parent.Fork("workload")
	c := parent.Fork("fd") // same label, second call: still distinct
	matches := 0
	for i := 0; i < 100; i++ {
		av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
		if av == bv || av == cv || bv == cv {
			matches++
		}
	}
	if matches > 0 {
		t.Fatalf("forked streams collided %d/100 times", matches)
	}
}

func TestForkNDeterministicAcrossRuns(t *testing.T) {
	mk := func() []uint64 {
		parent := NewRand(123)
		var out []uint64
		for i := 0; i < 5; i++ {
			out = append(out, parent.ForkN(i).Uint64())
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ForkN stream %d not reproducible", i)
		}
	}
}

func TestExpDistributionShape(t *testing.T) {
	// P(X > mean) should be about e^-1 ~ 0.368 for an exponential.
	r := NewRand(23)
	const n = 100000
	over := 0
	for i := 0; i < n; i++ {
		if r.Exp(10) > 10 {
			over++
		}
	}
	frac := float64(over) / n
	if math.Abs(frac-math.Exp(-1)) > 0.01 {
		t.Fatalf("P(X>mean) = %v, want ~%v", frac, math.Exp(-1))
	}
}

// TestMillisSaturates: millisecond values beyond the representable
// duration range — +Inf included — clamp to the maximum duration
// instead of overflowing to a negative one (which Schedule would then
// panic on as scheduling in the past).
func TestMillisSaturates(t *testing.T) {
	max := time.Duration(math.MaxInt64)
	for _, ms := range []float64{math.Inf(1), 1e300, 2e16} {
		if got := Millis(ms); got != max {
			t.Fatalf("Millis(%g) = %d, want saturation to %d", ms, got, max)
		}
	}
	if got := Millis(5); got != 5*time.Millisecond {
		t.Fatalf("Millis(5) = %v", got)
	}
}
