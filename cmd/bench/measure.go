package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"repro"
)

const (
	// setups is how often a workload is set up from scratch; setup_s is
	// the median, so the cold first set-up does not decide it.
	setups = 5
	// warmupPasses run inside every set-up, on seeds disjoint from the
	// timed ones.
	warmupPasses = 3
	warmupSeed   = 1 << 40
	// quietRate is the quantile of the per-pass rates that msgs_per_s
	// reports: the rate only the quietest tenth of passes exceed. On a
	// shared host a neighbour only ever slows a pass down, so the fast tail
	// is steadier between runs than the median.
	quietRate = 0.9
	// retentionPasses follow the timed passes, one heap_live_mb reading
	// each.
	retentionPasses = 3
	// blocks is the number of interleaved blocks the timed passes of each
	// workload are split into, so that a burst of host noise is spread
	// over all workloads of one command.
	blocks = 5
)

// passStat is what one timed pass leaves behind.
type passStat struct {
	wall              time.Duration
	msgs, undelivered int
	failed            int
	digest            uint64
}

// blockStat summarises one block of timed passes; -compare reads the
// blocks of a run as its spread when a file holds a single run.
type blockStat struct {
	Passes       int     `json:"passes"`
	MsgsPerS     float64 `json:"msgs_per_s"`
	AllocsPerMsg float64 `json:"allocs_per_msg"`
	BytesPerMsg  float64 `json:"bytes_per_msg"`
}

// wstate is one workload being measured.
type wstate struct {
	w    *workload
	seed uint64
	log  *spanLog
	span int // the workload's span

	cfgs   []repro.Config
	setupS []float64

	passes        []passStat
	blockStats    []blockStat
	mallocs, heap uint64 // Mallocs and TotalAlloc deltas over the timed passes
	msgs          int

	// The virtual pool: per-message latencies of the first virtPasses
	// timed passes, folded into quantiles once the last of them ran.
	virtPasses       int
	pool             repro.Collector
	virtP50, virtP99 float64
	virtSamples      int
	virtDigest       uint64

	heapLiveMB []float64 // one reading per retention pass

	tr         *tracer
	replayDiff int // checked passes whose digest differs from the timed pass of the same seed
	// serialMs holds untraced one-worker walls of the checked seeds, for a
	// workload whose timed passes run on two workers.
	serialMs []float64
}

// runPass runs the workload's points once with seed+k on every point.
func runPass(r *repro.Runner, cfgs []repro.Config, seed uint64) ([]repro.Result, time.Duration) {
	for i := range cfgs {
		cfgs[i].Seed = seed
	}
	start := time.Now()
	res := r.SteadyAll(cfgs)
	return res, time.Since(start)
}

// setup builds the workload from scratch and warms it up, several times
// over; the last build is the one the timed passes run.
func (s *wstate) setup(setups, warmupPasses int) {
	for i := 0; i < setups; i++ {
		_, done := s.log.open("setup", s.span, 0)
		start := time.Now()
		s.cfgs = s.w.build()
		r := &repro.Runner{Workers: s.w.workers}
		for j := 0; j < warmupPasses; j++ {
			runPass(r, s.cfgs, s.seed+warmupSeed+uint64(i*warmupPasses+j))
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds())
		done()
	}
}

// summarize reduces a pass to its counts and its digest: FNV-1a over
// every point's Messages, Undelivered and the bit patterns of mean, P50
// and P99. Equal seeds give equal digests on any host at any worker count.
func summarize(res []repro.Result, wall time.Duration) passStat {
	st := passStat{wall: wall}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range res {
		r := &res[i]
		st.msgs += r.Messages
		st.undelivered += r.Undelivered
		if r.Diverged || !r.Stable {
			st.failed += r.Messages
		}
		put(uint64(r.Messages))
		put(uint64(r.Undelivered))
		put(math.Float64bits(r.PerMessage.Mean))
		put(math.Float64bits(r.Quantiles.P50))
		put(math.Float64bits(r.Quantiles.P99))
	}
	st.failed += st.undelivered
	st.digest = h.Sum64()
	return st
}

// timedBlock runs one block of timed passes — no observer, tracing off —
// until both the pass count and the time budget are used up.
func (s *wstate) timedBlock(minPasses int, budget time.Duration) {
	r := &repro.Runner{Workers: s.w.workers}
	var before, after runtime.MemStats
	var mallocs, heap uint64
	first := len(s.passes)
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		k := len(s.passes)
		// Count allocations around the call into the program only: the
		// virtual pool below is the benchmark's own.
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		res, wall := runPass(r, s.cfgs, s.seed+uint64(k))
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		heap += after.TotalAlloc - before.TotalAlloc
		s.log.add("pass", s.span, 0, t0, t0.Add(wall))
		s.passes = append(s.passes, summarize(res, wall))
		if k < s.virtPasses {
			for i := range res {
				s.pool.Merge(&res[i].Dist)
			}
			if k == s.virtPasses-1 {
				s.closeVirtualPool()
			}
		}
	}

	block := s.passes[first:]
	msgs := 0
	for _, p := range block {
		msgs += p.msgs
	}
	s.msgs += msgs
	s.mallocs += mallocs
	s.heap += heap
	s.blockStats = append(s.blockStats, blockStat{
		Passes:       len(block),
		MsgsPerS:     quantile(rates(block), quietRate),
		AllocsPerMsg: float64(mallocs) / float64(msgs),
		BytesPerMsg:  float64(heap) / float64(msgs),
	})
}

// retained reads what the program keeps after a pass: a few more untimed
// passes, each followed by a forced collection with the pass's results
// still referenced. By now the virtual pool is folded and dropped, so the
// benchmark itself holds next to nothing.
func (s *wstate) retained(passes int) {
	r := &repro.Runner{Workers: s.w.workers}
	var ms runtime.MemStats
	for i := 0; i < passes; i++ {
		res, _ := runPass(r, s.cfgs, s.seed+uint64(len(s.passes)+i))
		runtime.GC()
		runtime.ReadMemStats(&ms)
		s.heapLiveMB = append(s.heapLiveMB, float64(ms.HeapAlloc)/1e6)
		runtime.KeepAlive(res)
	}
}

// closeVirtualPool folds the pooled latencies into the virtual metrics and
// drops the pool, so that heap_live_mb does not carry the benchmark's own
// samples.
func (s *wstate) closeVirtualPool() {
	q := s.pool.Quantiles()
	s.virtP50, s.virtP99, s.virtSamples = q.P50, q.P99, q.N
	s.pool = repro.Collector{}
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range s.passes[:s.virtPasses] {
		binary.LittleEndian.PutUint64(buf[:], p.digest)
		h.Write(buf[:])
	}
	s.virtDigest = h.Sum64()
}

// checkedPass replays timed pass k with the observer attached, always on
// one worker so that replication spans do not interleave. By determinism
// its verdict covers the timed pass of the same seed.
func (s *wstate) checkedPass(k, passID int) {
	cfgs := make([]repro.Config, len(s.cfgs))
	copy(cfgs, s.cfgs)
	for i := range cfgs {
		cfgs[i].Observers = []repro.ObserverFactory{s.tr.observer}
	}
	r := &repro.Runner{Workers: 1, Progress: s.tr.progress}
	passSpan, done := s.log.open("pass", s.span, passID)
	s.tr.beginPass(passSpan, passID, time.Now())
	res, wall := runPass(r, cfgs, s.seed+uint64(k))
	end := time.Now()
	done()
	s.log.add("merge", passSpan, passID, s.tr.mark, end)
	a := s.tr.agg
	a.mergeMs = append(a.mergeMs, float64(end.Sub(s.tr.mark))/1e6)
	a.passMs = append(a.passMs, float64(wall)/1e6)
	if st := summarize(res, wall); st.digest != s.passes[k].digest {
		s.replayDiff++
	}
}

// serialBaseline times the first n seeds untraced on one worker: what the
// checked passes of a two-worker workload are compared with.
func (s *wstate) serialBaseline(n int) {
	r := &repro.Runner{Workers: 1}
	for k := 0; k < n; k++ {
		_, wall := runPass(r, s.cfgs, s.seed+uint64(k))
		s.serialMs = append(s.serialMs, float64(wall)/1e6)
	}
}

// record assembles the workload's part of the run after its timed and
// checked passes.
func (s *wstate) record(checked int) workloadRecord {
	attempted, failed := s.counts()
	problems := s.problems()
	passMsgs := make([]int, len(s.passes))
	for i, p := range s.passes {
		passMsgs[i] = p.msgs
	}
	return workloadRecord{
		PassMs:       s.passMs(),
		PassMsgs:     passMsgs,
		Name:         s.w.name,
		Correct:      len(problems) == 0,
		Attempted:    attempted,
		Failed:       failed,
		Problems:     problems,
		TimedPasses:  len(s.passes),
		CheckedPass:  checked,
		Replications: s.tr.agg.replications,
		VirtPasses:   s.virtPasses,
		VirtSamples:  s.virtSamples,
		VirtDigest:   fmt.Sprintf("%016x", s.virtDigest),
		EndToEnd:     s.endToEnd(),
		Blocks:       s.blockStats,
		SendsByKind:  s.tr.agg.sendsByKind,
	}
}

// passMs returns the timed passes' walls in milliseconds.
func (s *wstate) passMs() []float64 {
	out := make([]float64, len(s.passes))
	for i, p := range s.passes {
		out[i] = float64(p.wall) / 1e6
	}
	return out
}

// rates returns the per-pass rates, messages per second of wall time.
func rates(passes []passStat) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = float64(p.msgs) / p.wall.Seconds()
	}
	return out
}

// endToEnd returns the workload's end-to-end metrics.
func (s *wstate) endToEnd() metrics {
	m := metrics{}
	m.set("setup_s", median(s.setupS), "s")
	m.set("msgs_per_s", quantile(rates(s.passes), quietRate), "msgs/s")
	m.set("allocs_per_msg", float64(s.mallocs)/float64(s.msgs), "allocs/msg")
	m.set("bytes_per_msg", float64(s.heap)/float64(s.msgs), "B/msg")
	m.set("heap_live_mb", median(s.heapLiveMB), "MB")
	m.set("virt_latency_ms_p50", s.virtP50, "ms")
	m.set("virt_latency_ms_p99", s.virtP99, "ms")
	return m
}

// counts returns the messages attempted and failed over the timed passes
// plus the broadcasts of checked replications that break the
// specification.
func (s *wstate) counts() (attempted, failed int) {
	for _, p := range s.passes {
		attempted += p.msgs + p.undelivered
		failed += p.failed
	}
	return attempted, failed + s.tr.agg.failedMsgs
}

// problems lists what makes the workload's outputs incorrect.
func (s *wstate) problems() []string {
	var out []string
	a := s.tr.agg
	if a.violations > 0 {
		out = append(out, fmt.Sprintf("%d specification violations, first: %v", a.violations, a.firstViolation))
	}
	if s.replayDiff > 0 {
		out = append(out, fmt.Sprintf("%d checked passes differ from the timed pass of the same seed", s.replayDiff))
	}
	if _, failed := s.counts(); failed > 0 {
		out = append(out, fmt.Sprintf("%d messages failed (undelivered, on unstable or diverged points, or in replications that break the specification)", failed))
	}
	return out
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metricValue

// set records a value; NaN and infinities (a quantile of nothing) read 0,
// which JSON can carry.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for no samples. It is the benchmark's own, so that
// a change to the program's statistics cannot move host-time medians.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0: a per-layer metric of a class of points
// the workload does not have reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
