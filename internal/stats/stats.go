// Package stats provides the small statistical toolkit the performance
// study needs: online mean/variance accumulation (Welford), 95% confidence
// intervals via the Student-t distribution, and order statistics.
//
// The paper reports the mean latency with a 95% confidence interval for
// every plotted point; Summary reproduces exactly that.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations online with Welford's algorithm, so a
// multi-million-message run needs O(1) memory for its mean and variance.
// The zero value is an empty sample ready for use.
//
// Empty-sample contract: with no observations, N reports 0 and Mean, Min,
// Max, Variance, StdDev, StdErr and CI95 all report NaN — never a
// misleading zero. AddSample treats an empty operand as the identity in
// either direction, so per-replication samples from replications that
// measured nothing (all messages undelivered, or an aborted divergent
// run) merge cleanly without poisoning the aggregate. Summarize of an
// empty sample carries the same values: N = 0 and NaN statistics.
type Sample struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddSample merges another sample into s (parallel Welford merge). An
// empty operand is the identity: merging it changes nothing, and merging
// anything into an empty s copies the operand exactly.
func (s *Sample) AddSample(o Sample) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	delta := o.mean - s.mean
	total := s.n + o.n
	s.mean += delta * float64(o.n) / float64(total)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(total)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = total
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Variance returns the unbiased sample variance, or NaN with fewer than
// two observations.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the 95% confidence interval for the mean,
// using the Student-t distribution with n-1 degrees of freedom. With fewer
// than two observations it returns NaN.
func (s *Sample) CI95() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return tQuantile975(s.n-1) * s.StdErr()
}

// Summary is a value snapshot of a sample, convenient for reporting.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// Summarize returns a snapshot of the sample's statistics.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:      s.n,
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
		CI95:   s.CI95(),
		Min:    s.Min(),
		Max:    s.Max(),
	}
}

// String formats the summary as "mean ± ci (n=...)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean, s.CI95, s.N)
}

// tTable holds two-sided 95% Student-t critical values t_{0.975,df} for
// small degrees of freedom; larger dfs interpolate toward the normal
// quantile 1.959964.
var tTable = map[int]float64{
	1: 12.7062, 2: 4.3027, 3: 3.1824, 4: 2.7764, 5: 2.5706,
	6: 2.4469, 7: 2.3646, 8: 2.3060, 9: 2.2622, 10: 2.2281,
	11: 2.2010, 12: 2.1788, 13: 2.1604, 14: 2.1448, 15: 2.1314,
	16: 2.1199, 17: 2.1098, 18: 2.1009, 19: 2.0930, 20: 2.0860,
	21: 2.0796, 22: 2.0739, 23: 2.0687, 24: 2.0639, 25: 2.0595,
	26: 2.0555, 27: 2.0518, 28: 2.0484, 29: 2.0452, 30: 2.0423,
	40: 2.0211, 50: 2.0086, 60: 2.0003, 80: 1.9901, 100: 1.9840,
	120: 1.9799,
}

// tQuantile975 returns the two-sided 95% critical value for df degrees of
// freedom, interpolating between tabulated points and falling back to the
// standard normal value for large df.
func tQuantile975(df int) float64 {
	if df < 1 {
		return math.NaN()
	}
	if v, ok := tTable[df]; ok {
		return v
	}
	if df > 120 {
		return 1.959964
	}
	// Linear interpolation in 1/df between the nearest tabulated points,
	// which is the standard approach for t-table gaps.
	lo, hi := df, df
	for ; ; lo-- {
		if _, ok := tTable[lo]; ok {
			break
		}
	}
	for ; ; hi++ {
		if _, ok := tTable[hi]; ok {
			break
		}
	}
	tl, th := tTable[lo], tTable[hi]
	fl, fh, f := 1/float64(lo), 1/float64(hi), 1/float64(df)
	return th + (tl-th)*(f-fh)/(fl-fh)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the data using linear
// interpolation between order statistics. It copies and sorts the input.
// An empty slice returns NaN.
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted reads the q-quantile from already-sorted data, so one
// sort serves several quantiles (Collector.Quantiles).
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Histogram counts observations into equal-width bins over [lo, hi).
// Observations outside the range land in the first or last bin. It is used
// by the latency-distribution diagnostics of the experiment harness.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with the given bounds and bin count.
// It panics if bins <= 0 or hi <= lo, which are always caller bugs.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram with non-positive bin count")
	}
	if hi <= lo {
		panic("stats: histogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records an observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records n observations of the same value, the bulk form used
// when re-binning a quantile sketch's buckets. n <= 0 records nothing.
func (h *Histogram) AddN(x float64, n int) {
	if n <= 0 {
		return
	}
	bins := len(h.Counts)
	i := int(float64(bins) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	h.Counts[i] += n
	h.total += n
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}
