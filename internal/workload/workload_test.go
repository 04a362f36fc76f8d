package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPoissonRate(t *testing.T) {
	eng := sim.New()
	count := 0
	NewPoisson(eng, sim.NewRand(1), 100, func() { count++ })
	horizon := 100 * time.Second
	eng.RunUntil(sim.Time(0).Add(horizon))
	want := 100 * horizon.Seconds()
	if math.Abs(float64(count)-want)/want > 0.05 {
		t.Fatalf("events = %d, want ~%v", count, want)
	}
}

func TestPoissonInterArrivalDistribution(t *testing.T) {
	eng := sim.New()
	var times []sim.Time
	NewPoisson(eng, sim.NewRand(2), 50, func() { times = append(times, eng.Now()) })
	eng.RunUntil(sim.Time(0).Add(200 * time.Second))
	if len(times) < 1000 {
		t.Fatalf("only %d events", len(times))
	}
	// Mean gap should be 20ms; coefficient of variation ~1 (exponential).
	var gaps []float64
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i].Sub(times[i-1]).Seconds()*1000)
	}
	mean, m2 := 0.0, 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		m2 += (g - mean) * (g - mean)
	}
	sd := math.Sqrt(m2 / float64(len(gaps)-1))
	if math.Abs(mean-20)/20 > 0.06 {
		t.Fatalf("mean gap = %v, want ~20ms", mean)
	}
	if cv := sd / mean; math.Abs(cv-1) > 0.1 {
		t.Fatalf("cv = %v, want ~1 for exponential gaps", cv)
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	eng := sim.New()
	fired := false
	NewPoisson(eng, sim.NewRand(1), 0, func() { fired = true })
	eng.RunUntil(sim.Time(0).Add(time.Hour))
	if fired {
		t.Fatal("zero-rate source fired")
	}
}

func TestSpreadSplitsRateAcrossSenders(t *testing.T) {
	eng := sim.New()
	counts := make(map[int]int)
	Spread(eng, sim.NewRand(4), 300, 3, []int{0, 1, 2}, func(s int) { counts[s]++ })
	horizon := 50 * time.Second
	eng.RunUntil(sim.Time(0).Add(horizon))
	for s := 0; s < 3; s++ {
		want := 100 * horizon.Seconds()
		if math.Abs(float64(counts[s])-want)/want > 0.07 {
			t.Fatalf("sender %d fired %d, want ~%v", s, counts[s], want)
		}
	}
}

func TestSpreadWithCrashedSendersKeepsPerProcessRate(t *testing.T) {
	// Crash-steady semantics: nominal n fixes the per-process rate, and
	// dead senders just drop out of the total.
	eng := sim.New()
	total := 0
	Spread(eng, sim.NewRand(5), 300, 3, []int{0, 1}, func(int) { total++ })
	horizon := 50 * time.Second
	eng.RunUntil(sim.Time(0).Add(horizon))
	want := 200 * horizon.Seconds() // 2 of 3 senders alive
	if math.Abs(float64(total)-want)/want > 0.07 {
		t.Fatalf("total = %d, want ~%v", total, want)
	}
}

// TestSetRateSameRateIsNoOp: pushing the current rate must not consume
// randomness or perturb timing — the event stream matches a run that
// never called SetRate, bit for bit.
func TestSetRateSameRateIsNoOp(t *testing.T) {
	run := func(poke bool) []sim.Time {
		eng := sim.New()
		var times []sim.Time
		p := NewPoisson(eng, sim.NewRand(7), 200, func() { times = append(times, eng.Now()) })
		if poke {
			for i := 1; i <= 40; i++ {
				eng.Schedule(sim.Time(0).Add(time.Duration(i)*137*time.Millisecond), func() { p.SetRate(200) })
			}
		}
		eng.RunUntil(sim.Time(0).Add(10 * time.Second))
		return times
	}
	plain, poked := run(false), run(true)
	if len(plain) != len(poked) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(poked))
	}
	for i := range plain {
		if plain[i] != poked[i] {
			t.Fatalf("event %d: %v vs %v", i, plain[i], poked[i])
		}
	}
}

// TestSetRateMidGapRescalesRemainder: halving the rate mid-gap must
// exactly double the remaining wait, with no fresh randomness.
func TestSetRateMidGapRescalesRemainder(t *testing.T) {
	eng := sim.New()
	var fired []sim.Time
	p := NewPoisson(eng, sim.NewRand(11), 10, func() { fired = append(fired, eng.Now()) })
	full := p.next.When() // the first gap, at rate 10/s
	// Change the rate a quarter of the way into the gap: the remaining
	// three quarters should stretch 2x at half the rate.
	quarter := sim.Time(0).Add(full.Duration() / 4)
	eng.Schedule(quarter, func() { p.SetRate(5) })
	eng.RunUntil(sim.Time(0).Add(time.Hour))
	if len(fired) == 0 {
		t.Fatal("source never fired")
	}
	want := quarter.Add(2 * full.Sub(quarter)).Duration().Seconds()
	got := fired[0].Duration().Seconds()
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("first event at %.9fs, want %.9fs (rescaled remainder)", got, want)
	}
}

// TestSetRateZeroThenResume: SetRate(0) freezes the gap in flight;
// resuming fires exactly the frozen remainder (rescaled) later, and the
// long-run rate afterwards is the resumed one.
func TestSetRateZeroThenResume(t *testing.T) {
	eng := sim.New()
	count := 0
	var first sim.Time
	p := NewPoisson(eng, sim.NewRand(13), 100, func() {
		if count == 0 {
			first = eng.Now()
		}
		count++
	})
	full := p.next.When()
	pauseAt := sim.Time(0).Add(full.Duration() / 2)
	resumeAt := sim.Time(0).Add(3 * time.Second)
	eng.Schedule(pauseAt, func() { p.SetRate(0) })
	eng.RunUntil(sim.Time(0).Add(2 * time.Second))
	if count != 0 {
		t.Fatalf("silenced source fired %d times", count)
	}
	if p.rate != 0 {
		t.Fatalf("rate = %v while silenced, want 0", p.rate)
	}
	eng.Schedule(resumeAt, func() { p.SetRate(100) })
	horizon := 100 * time.Second
	eng.RunUntil(resumeAt.Add(horizon))
	// First firing: the remaining half gap, resumed at the same rate.
	want := resumeAt.Add(full.Duration() - pauseAt.Duration()).Duration().Seconds()
	if got := first.Duration().Seconds(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("first post-resume event at %.9fs, want %.9fs", got, want)
	}
	// Long-run rate is back to 100/s.
	wantN := 100 * horizon.Seconds()
	if math.Abs(float64(count)-wantN)/wantN > 0.05 {
		t.Fatalf("post-resume events = %d, want ~%v", count, wantN)
	}
}

// TestSetRateStartsSilentSource: a source built with rate 0 draws nothing
// until SetRate starts it.
func TestSetRateStartsSilentSource(t *testing.T) {
	eng := sim.New()
	count := 0
	p := NewPoisson(eng, sim.NewRand(17), 0, func() { count++ })
	eng.RunUntil(sim.Time(0).Add(time.Second))
	eng.Schedule(eng.Now(), func() { p.SetRate(1000) })
	horizon := 10 * time.Second
	eng.RunUntil(sim.Time(0).Add(time.Second).Add(horizon))
	want := 1000 * horizon.Seconds()
	if math.Abs(float64(count)-want)/want > 0.05 {
		t.Fatalf("events = %d, want ~%v", count, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []sim.Time {
		eng := sim.New()
		var times []sim.Time
		NewPoisson(eng, sim.NewRand(42), 200, func() { times = append(times, eng.Now()) })
		eng.RunUntil(sim.Time(0).Add(10 * time.Second))
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at event %d", i)
		}
	}
}
