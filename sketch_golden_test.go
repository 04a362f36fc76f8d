package repro

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

// goldenSketchAlpha is the relative-error bound the golden-config sketch
// test folds each measured distribution at.
const goldenSketchAlpha = 0.02

// goldenSteadyConfigs derives one steady-state experiment Config from
// each golden scenario's cluster configuration: same algorithm, size,
// seed, λ, QoS, detector, pre-crashes and fault plan, with a short
// fixed measurement window. The interactive parts of the golden drives
// (scripted broadcasts and suspicions) are replaced by the scenario's
// own steady load, which is what Result.Dist measures.
func goldenSteadyConfigs() (names []string, cfgs []Config) {
	for _, sc := range goldenScenarios() {
		cfg := Config{
			Algorithm:    sc.cfg.Algorithm,
			N:            sc.cfg.N,
			Lambda:       sc.cfg.Lambda,
			QoS:          sc.cfg.QoS,
			Detector:     sc.cfg.Heartbeat,
			Plan:         sc.cfg.Plan,
			Seed:         sc.cfg.Seed,
			Throughput:   100,
			Warmup:       200 * time.Millisecond,
			Measure:      time.Second,
			Drain:        5 * time.Second,
			Replications: 2,
		}
		for _, p := range sc.cfg.PreCrashed {
			cfg.Crashed = append(cfg.Crashed, ProcessID(p))
		}
		names = append(names, sc.name)
		cfgs = append(cfgs, cfg)
	}
	return names, cfgs
}

// orderStat returns the exact order statistic a sketch quantile
// estimates: the value at rank ceil(q*n) of the sorted observations.
func orderStat(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestSketchModeGoldenConfigs runs every golden scenario config on 1 and
// on 8 workers and checks the measured distribution, Result.Dist, twice:
// it is bit-identical at either worker count, and the sketch-mode
// collector of internal/stats, fed the same observations, keeps count,
// mean and extrema exact and every quantile within its relative error of
// the exact order statistic.
func TestSketchModeGoldenConfigs(t *testing.T) {
	names, cfgs := goldenSteadyConfigs()
	serial := (&Runner{Workers: 1}).SteadyAll(cfgs)
	parallel := (&Runner{Workers: 8}).SteadyAll(cfgs)

	for i, name := range names {
		i := i
		t.Run(name, func(t *testing.T) {
			e, p := serial[i], parallel[i]
			if e.Dist.N() == 0 || e.Dist.N() != e.Messages {
				t.Fatalf("Dist.N = %d for %d measured messages (want equal and > 0)", e.Dist.N(), e.Messages)
			}

			// Worker independence: 1 and 8 workers must agree bit for bit.
			if p.Messages != e.Messages || p.Undelivered != e.Undelivered {
				t.Fatalf("8-worker run differs: %d msgs/%d undelivered, serial %d/%d",
					p.Messages, p.Undelivered, e.Messages, e.Undelivered)
			}
			ev, pv := e.Dist.Values(), p.Dist.Values()
			for k := range ev {
				if math.Float64bits(ev[k]) != math.Float64bits(pv[k]) {
					t.Fatalf("latency %d: 8 workers %v, 1 worker %v — not bit-identical", k, pv[k], ev[k])
				}
			}
			if math.Float64bits(p.Latency.Mean) != math.Float64bits(e.Latency.Mean) {
				t.Errorf("Latency.Mean: 8 workers %v, 1 worker %v — not bit-identical", p.Latency.Mean, e.Latency.Mean)
			}

			// Sketch promise: count, mean and extrema exact, P50/P90/P99
			// within alpha of the exact order statistics.
			sk := stats.NewSketchCollector(goldenSketchAlpha)
			sk.Merge(&e.Dist)
			if sk.N() != e.Dist.N() || math.Float64bits(sk.Mean()) != math.Float64bits(e.Dist.Mean()) {
				t.Fatalf("sketch n=%d mean=%v, exact n=%d mean=%v", sk.N(), sk.Mean(), e.Dist.N(), e.Dist.Mean())
			}
			sort.Float64s(ev)
			eq, sq := e.Quantiles, sk.Quantiles()
			if math.Float64bits(sq.Min) != math.Float64bits(eq.Min) ||
				math.Float64bits(sq.Max) != math.Float64bits(eq.Max) {
				t.Errorf("sketch extrema [%v, %v] differ from exact [%v, %v]", sq.Min, sq.Max, eq.Min, eq.Max)
			}
			for q, got := range map[float64]float64{0.50: sq.P50, 0.90: sq.P90, 0.99: sq.P99} {
				want := orderStat(ev, q)
				if math.Abs(got-want) > goldenSketchAlpha*want+1e-12 {
					t.Errorf("P%v: sketch %v vs exact %v beyond relative error %v",
						q*100, got, want, goldenSketchAlpha)
				}
			}
		})
	}
}
