package swift_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the paper-formatted rows once (via b.Logf on
// -v, and always through the recorded metrics). swift-eval -exp runs
// the same experiments at full paper scale with textual output.

import (
	"sync"
	"testing"

	"swift/internal/bgpsim"
	"swift/internal/experiments"
	"swift/internal/trace"
)

// benchDataset is shared across benchmarks: a mid-scale synthetic
// capture (the full 213-session month is swift-eval -exp territory).
var (
	benchOnce sync.Once
	benchDS   *trace.Dataset
	benchSess []trace.Session
)

func dataset(b *testing.B) (*trace.Dataset, []trace.Session) {
	b.Helper()
	benchOnce.Do(func() {
		benchDS = trace.Generate(trace.Config{
			NumASes:           300,
			AvgDegree:         7,
			Sessions:          60,
			Days:              30,
			Failures:          60,
			MaxPrefixes:       8000,
			PopularASes:       10,
			ASFailureFraction: 0.15,
			Timing:            bgpsim.DefaultTiming(1),
			Seed:              1,
		})
		seen := map[trace.Session]bool{}
		for _, st := range benchDS.Census(1500) {
			if !seen[st.Session] && len(benchSess) < 3 {
				seen[st.Session] = true
				benchSess = append(benchSess, st.Session)
			}
		}
	})
	if len(benchSess) == 0 {
		b.Skip("no bursty sessions in the bench dataset")
	}
	return benchDS, benchSess
}

// BenchmarkTable1Downtime regenerates Table 1: vanilla-router downtime
// versus burst size.
func BenchmarkTable1Downtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1([]int{10000, 50000, 100000}, 1)
		if i == 0 {
			b.Logf("\n%s", res)
			last := res.Rows[len(res.Rows)-1]
			b.ReportMetric(last.Downtime.Seconds(), "s-downtime-100k")
		}
	}
}

// BenchmarkFig2aBurstCounts regenerates Fig. 2a: bursts per month vs
// number of peering sessions.
func BenchmarkFig2aBurstCounts(b *testing.B) {
	ds, _ := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2a(ds, 7)
		if i == 0 {
			b.Logf("\n%s", res)
			b.ReportMetric(res.Box[3][0].Median, "bursts-30sess-5k")
		}
	}
}

// BenchmarkFig2bBurstDurations regenerates Fig. 2b: burst-duration CDF.
func BenchmarkFig2bBurstDurations(b *testing.B) {
	ds, _ := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2b(ds)
		if i == 0 {
			b.Logf("\n%s", res)
			b.ReportMetric(100*res.Over10s, "pct-over-10s")
		}
	}
}

// BenchmarkFig6Inference regenerates both panels of Fig. 6.
func BenchmarkFig6Inference(b *testing.B) {
	ds, sess := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noHist := experiments.Fig6(ds, sess, 1500, false)
		hist := experiments.Fig6(ds, sess, 1500, true)
		if i == 0 {
			b.Logf("\n%s\n%s", noHist, hist)
			b.ReportMetric(100*hist.Shares[0], "pct-top-left-hist")
			b.ReportMetric(100*hist.Shares[3], "pct-bottom-right")
		}
	}
}

// BenchmarkSimLocalization regenerates §6.2.2: ground-truth localization
// accuracy, with and without noise.
func BenchmarkSimLocalization(b *testing.B) {
	ds, sess := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clean := experiments.SimLocalization(ds, sess, 1500, 200, 0)
		noisy := experiments.SimLocalization(ds, sess, 1500, 200, 1000)
		if i == 0 {
			b.Logf("\nclean:\n%s\nwith 1000 noise withdrawals:\n%s", clean, noisy)
			if clean.Bursts > 0 {
				b.ReportMetric(100*float64(clean.SafeBackups)/float64(clean.Bursts), "pct-safe-backups")
			}
		}
	}
}

// BenchmarkTable2Prediction regenerates Table 2: CPR/FPR/CP/FP
// percentiles for small and large bursts.
func BenchmarkTable2Prediction(b *testing.B) {
	ds, sess := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(ds, sess, 1500)
		if i == 0 {
			b.Logf("\n%s", res)
			if len(res.Small.CPR) > 3 {
				b.ReportMetric(res.Small.CPR[3], "pct-median-CPR-small")
			}
		}
	}
}

// BenchmarkFig7Encoding regenerates Fig. 7: encoding performance vs
// Part-1 bit budget.
func BenchmarkFig7Encoding(b *testing.B) {
	ds, sess := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The paper sweeps 13/18/23/28; at this dataset's scale the
		// dictionaries already fit in 13 bits, so extend the sweep down
		// to expose the coverage cliff.
		res := experiments.Fig7(ds, sess, 1500, []int{6, 10, 13, 18, 23, 28})
		if i == 0 {
			b.Logf("\n%s", res)
			b.ReportMetric(res.All[3].Median, "pct-18bit-median")
		}
	}
}

// BenchmarkFig8LearningTime regenerates Fig. 8: learning-time CDFs.
func BenchmarkFig8LearningTime(b *testing.B) {
	ds, sess := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(ds, sess, 1500)
		if i == 0 {
			b.Logf("\n%s", res)
			b.ReportMetric(res.Swift.Quantile(0.5), "s-swift-median")
			b.ReportMetric(res.BGP.Quantile(0.5), "s-bgp-median")
		}
	}
}

// BenchmarkRules65 regenerates §6.5: rule counts and FIB latency per
// inference.
func BenchmarkRules65(b *testing.B) {
	ds, sess := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Rules(ds, sess, 1500, 16)
		if i == 0 {
			b.Logf("\n%s", res)
			b.ReportMetric(res.LinksMedian, "links-median")
		}
	}
}

// BenchmarkFig9CaseStudy regenerates the §7 case study at a laptop
// scale (50k; swift-eval -exp fig9 runs the full 290k).
func BenchmarkFig9CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(50000, 3)
		if i == 0 {
			b.Logf("\n%s", res)
			b.ReportMetric(res.SpeedupPct, "pct-speedup")
		}
	}
}

// BenchmarkAblateWeights sweeps the Fit-Score weights (DESIGN.md
// ablation: 3:1 is the paper's calibration).
func BenchmarkAblateWeights(b *testing.B) {
	ds, sess := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.AblateWeights(ds, sess, 1500)
		if i == 0 {
			b.Logf("\n%s", res)
		}
	}
}

// BenchmarkAblateTrigger sweeps the inference trigger threshold.
func BenchmarkAblateTrigger(b *testing.B) {
	ds, sess := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.AblateTrigger(ds, sess, 1500)
		if i == 0 {
			b.Logf("\n%s", res)
		}
	}
}
