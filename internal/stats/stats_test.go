package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if s.N() != 0 {
		t.Fatalf("N() = %d, want 0", s.N())
	}
	for name, v := range map[string]float64{
		"Mean": s.Mean(), "Variance": s.Variance(), "CI95": s.CI95(),
		"Min": s.Min(), "Max": s.Max(),
	} {
		if !math.IsNaN(v) {
			t.Fatalf("%s of empty sample = %v, want NaN", name, v)
		}
	}
}

func TestSampleMeanAndVariance(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic dataset is 4; unbiased sample
	// variance is 32/7.
	if !almostEqual(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.Mean() != 42 {
		t.Fatalf("Mean = %v, want 42", s.Mean())
	}
	if !math.IsNaN(s.Variance()) {
		t.Fatalf("Variance of n=1 = %v, want NaN", s.Variance())
	}
	if s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("Min/Max = %v/%v, want 42/42", s.Min(), s.Max())
	}
}

func TestAddSampleMergeMatchesSequential(t *testing.T) {
	data := []float64{1.5, 2.5, 3, 8, 13, 0.25, -4, 9, 9, 2}
	var whole Sample
	for _, x := range data {
		whole.Add(x)
	}
	var a, b Sample
	for _, x := range data[:4] {
		a.Add(x)
	}
	for _, x := range data[4:] {
		b.Add(x)
	}
	a.AddSample(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-9) {
		t.Fatalf("merged Mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-9) {
		t.Fatalf("merged Variance = %v, want %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged Min/Max = %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

func TestAddSampleEmptyCases(t *testing.T) {
	var a, b Sample
	b.Add(3)
	b.Add(5)
	a.AddSample(b) // empty += non-empty
	if a.N() != 2 || a.Mean() != 4 {
		t.Fatalf("empty+=b gives N=%d Mean=%v", a.N(), a.Mean())
	}
	var c Sample
	a.AddSample(c) // non-empty += empty
	if a.N() != 2 || a.Mean() != 4 {
		t.Fatalf("a+=empty changed sample: N=%d Mean=%v", a.N(), a.Mean())
	}
}

func TestMergePropertyRandom(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		// Filter non-finite values that quick may generate.
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsInf(x, 0) && !math.IsNaN(x) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		k := int(split) % len(clean)
		var whole, a, b Sample
		for _, x := range clean {
			whole.Add(x)
		}
		for _, x := range clean[:k] {
			a.Add(x)
		}
		for _, x := range clean[k:] {
			b.Add(x)
		}
		a.AddSample(b)
		return a.N() == whole.N() &&
			almostEqual(a.Mean(), whole.Mean(), 1e-6*(1+math.Abs(whole.Mean())))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=5 observations 1..5: mean 3, sd sqrt(2.5), se sqrt(0.5),
	// t_{0.975,4} = 2.7764 -> CI = 2.7764*sqrt(0.5) = 1.9632...
	var s Sample
	for i := 1; i <= 5; i++ {
		s.Add(float64(i))
	}
	want := 2.7764 * math.Sqrt(0.5)
	if !almostEqual(s.CI95(), want, 1e-3) {
		t.Fatalf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	// Same spread, more data -> smaller CI.
	mk := func(reps int) float64 {
		var s Sample
		for i := 0; i < reps; i++ {
			s.Add(float64(i % 10))
		}
		return s.CI95()
	}
	small, large := mk(20), mk(2000)
	if large >= small {
		t.Fatalf("CI95 did not shrink: n=20 gives %v, n=2000 gives %v", small, large)
	}
}

func TestTQuantileTableAndInterpolation(t *testing.T) {
	cases := []struct {
		df   int
		want float64
		tol  float64
	}{
		{1, 12.7062, 1e-9},
		{10, 2.2281, 1e-9},
		{30, 2.0423, 1e-9},
		{35, 2.030, 0.005}, // interpolated between 30 and 40
		{1000, 1.959964, 1e-9},
	}
	for _, c := range cases {
		if got := tQuantile975(c.df); !almostEqual(got, c.want, c.tol) {
			t.Errorf("tQuantile975(%d) = %v, want %v±%v", c.df, got, c.want, c.tol)
		}
	}
	if !math.IsNaN(tQuantile975(0)) {
		t.Error("tQuantile975(0) should be NaN")
	}
}

func TestTQuantileMonotonicDecreasing(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tQuantile975(df)
		if v > prev+1e-9 {
			t.Fatalf("t quantile increased at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{15, 20, 35, 40, 50}
	cases := []struct{ q, want float64 }{
		{0, 15},
		{1, 50},
		{0.5, 35},
		{0.25, 20},
		{0.75, 40},
	}
	for _, c := range cases {
		if got := Quantile(data, c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated.
	if data[0] != 15 || data[4] != 50 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if !math.IsNaN(Quantile([]float64{1}, -0.1)) {
		t.Error("Quantile(q<0) should be NaN")
	}
	if !math.IsNaN(Quantile([]float64{1}, 1.1)) {
		t.Error("Quantile(q>1) should be NaN")
	}
	if got := Quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("Quantile single = %v, want 7", got)
	}
}

func TestSummaryString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	str := s.Summarize().String()
	if str == "" {
		t.Fatal("empty summary string")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{0.5, 1.5, 2.5, 9.9, -3, 15} {
		h.Add(x)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
	// Bins have width 2; -3 clamps to bin 0 and 15 clamps to bin 4.
	if h.Counts[0] != 3 { // 0.5, 1.5 and -3
		t.Fatalf("bin 0 count = %d, want 3", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2.5
		t.Fatalf("bin 1 count = %d, want 1", h.Counts[1])
	}
	if h.Counts[4] != 2 { // 9.9 and 15
		t.Fatalf("bin 4 count = %d, want 2", h.Counts[4])
	}
	if got := h.BinCenter(0); got != 1 {
		t.Fatalf("BinCenter(0) = %v, want 1", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bins": func() { NewHistogram(0, 1, 0) },
		"hi<=lo":    func() { NewHistogram(5, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWelfordNumericalStability(t *testing.T) {
	// Large offset + small variance is the classic catastrophic
	// cancellation case for naive two-pass variance.
	var s Sample
	const offset = 1e9
	for _, x := range []float64{offset + 4, offset + 7, offset + 13, offset + 16} {
		s.Add(x)
	}
	if !almostEqual(s.Mean(), offset+10, 1e-3) {
		t.Fatalf("Mean = %v, want %v", s.Mean(), offset+10.0)
	}
	if !almostEqual(s.Variance(), 30, 1e-3) {
		t.Fatalf("Variance = %v, want 30", s.Variance())
	}
}

func TestCI95Calibration(t *testing.T) {
	// Statistical validation of the confidence-interval machinery: draw
	// many samples of n=10 observations from a known distribution and
	// check that the 95% CI covers the true mean close to 95% of the
	// time. Deterministic LCG so the test is stable.
	const (
		trials   = 4000
		perTrial = 10
		trueMean = 50.0
	)
	state := uint64(987654321)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	covered := 0
	for trial := 0; trial < trials; trial++ {
		var s Sample
		for i := 0; i < perTrial; i++ {
			// Uniform on [0, 100): mean 50.
			s.Add(next() * 100)
		}
		ci := s.CI95()
		if s.Mean()-ci <= trueMean && trueMean <= s.Mean()+ci {
			covered++
		}
	}
	rate := float64(covered) / trials
	// The t-based interval on uniform data should land near 0.95;
	// allow a generous band for finite-sample effects.
	if rate < 0.93 || rate > 0.97 {
		t.Fatalf("CI95 coverage = %.3f, want ~0.95", rate)
	}
}
