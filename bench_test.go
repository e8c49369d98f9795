// Benchmark harness: one benchmark per table and figure of the paper,
// plus ablations. Each benchmark runs its experiment at a reduced but
// statistically meaningful scale and reports the headline metric
// (accuracy ‰, read rates) as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation and prints measured-vs-paper values.
// cmd/experiments prints the same results with more narrative.
package tagbreathe_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tagbreathe"
	"tagbreathe/internal/experiments"
	"tagbreathe/internal/sim"
)

// benchOptions scales experiments for benchmarking: enough trials for
// stable averages, short enough to keep -bench runs in minutes.
func benchOptions() experiments.Options {
	return experiments.Options{Trials: 4, Duration: 90 * time.Second, Seed: 7}
}

// reportAccuracy publishes per-point accuracies as custom metrics,
// named so the benchmark output reads like the paper's figure.
func reportAccuracy(b *testing.B, prefix string, points []experiments.AccuracyPoint) {
	b.Helper()
	for _, p := range points {
		label := p.Label
		if label == "" {
			label = trimFloat(p.X)
		}
		b.ReportMetric(p.Accuracy*100, prefix+label+"_acc_%")
	}
}

func trimFloat(v float64) string {
	s := make([]byte, 0, 8)
	if v == float64(int64(v)) {
		n := int64(v)
		if n == 0 {
			return "0"
		}
		var digits []byte
		for n > 0 {
			digits = append(digits, byte('0'+n%10))
			n /= 10
		}
		for i := len(digits) - 1; i >= 0; i-- {
			s = append(s, digits[i])
		}
		return string(s)
	}
	return "x"
}

// synthMultiUserReports generates an interleaved report stream for n
// users (3 tags each, Eq. 1 physics, 10-channel hopping) without the
// Gen2 MAC simulator, so benchmark input size scales linearly with
// user count — the "many readers, many rooms" aggregation workload the
// sharded pipeline targets. It is a thin wrapper over
// internal/sim.Synth (16 bytes of generator state per user), the
// generator TestMonitorScale also drives; sim's
// TestSynthMatchesReferenceGenerator pins the stream bit-for-bit to
// the inline generator the benchmarks used before it.
func synthMultiUserReports(users int, duration time.Duration, perTagHz float64) []tagbreathe.TagReport {
	s, err := sim.NewSynth(sim.SynthConfig{Users: users, PerTagHz: perTagHz})
	if err != nil {
		panic(err)
	}
	return s.Generate(duration)
}

// estimateBenchDuration keeps the 4096-user point affordable at
// -benchtime=1x in CI: a third of the window is still ~4M reads, and
// reads/op is reported so throughput stays comparable across points.
func estimateBenchDuration(users int) time.Duration {
	if users >= 4096 {
		return 10 * time.Second
	}
	return 30 * time.Second
}

// BenchmarkEstimateUsers is the multi-user scaling benchmark: the same
// synthetic report window through the sequential (Workers=1) and
// sharded (Workers=GOMAXPROCS) batch paths at 1/8/64/512/4096 users.
// On a multicore host the sharded path's advantage grows with user
// count; the equivalence test asserts both paths produce identical
// estimates.
func BenchmarkEstimateUsers(b *testing.B) {
	for _, users := range []int{1, 8, 64, 512, 4096} {
		reports := synthMultiUserReports(users, estimateBenchDuration(users), 8)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"seq", 1}, {"sharded", 0}} {
			b.Run(fmt.Sprintf("%s/users=%d", mode.name, users), func(b *testing.B) {
				cfg := tagbreathe.Config{Workers: mode.workers}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ests, err := tagbreathe.Estimate(reports, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if len(ests) != users {
						b.Fatalf("estimated %d/%d users", len(ests), users)
					}
				}
				b.ReportMetric(float64(len(reports)), "reads/op")
			})
		}
	}
}

// BenchmarkMonitorUsers measures the sharded streaming monitor at
// scale: reports per second of wall time through demux, the shard
// worker pool, and the ordering collector, in process. The LLRP wire
// to the update at the paper's workload is priced by ledgerbench
// (BENCHMARK.json).
func BenchmarkMonitorUsers(b *testing.B) {
	for _, users := range []int{8, 64, 512} {
		reports := synthMultiUserReports(users, 30*time.Second, 8)
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				updates, err := tagbreathe.MonitorStream(reports, tagbreathe.MonitorConfig{
					UpdateEvery: 5 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(updates) == 0 {
					b.Fatal("no updates")
				}
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(len(reports))/perOp, "reports/s")
			}
		})
	}
}

// BenchmarkMonitorInstrumentation pins the observability overhead: the
// same 64-user stream through the monitor with instruments wired to a
// nil registry (the disabled default — live handles, no exposition)
// and to a real registry. The two reports/s figures must stay within
// 2% of each other; every hot-path update is a single atomic op, so
// the difference is expected to be noise.
func BenchmarkMonitorInstrumentation(b *testing.B) {
	const users = 64
	reports := synthMultiUserReports(users, 30*time.Second, 8)
	for _, mode := range []struct {
		name string
		reg  func() *tagbreathe.MetricsRegistry
	}{
		{"disabled", func() *tagbreathe.MetricsRegistry { return nil }},
		{"enabled", tagbreathe.NewMetricsRegistry},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				updates, err := tagbreathe.MonitorStream(reports, tagbreathe.MonitorConfig{
					UpdateEvery: 5 * time.Second,
					Metrics:     tagbreathe.NewMonitorMetrics(mode.reg()),
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(updates) == 0 {
					b.Fatal("no updates")
				}
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(len(reports))/perOp, "reports/s")
			}
		})
	}
}

// BenchmarkTable1Defaults times one full default-scenario pipeline run
// (simulate + estimate), the workload every Table I default defines.
func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ch, err := experiments.RunCharacterization(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		_ = ch
	}
}

// BenchmarkFig02to08Characterization regenerates the §IV-A study:
// Figs. 2 (RSSI), 3 (Doppler), 4 (phase), 5 (hopping), 6
// (displacement), 7 (FFT), 8 (extracted signal).
func BenchmarkFig02to08Characterization(b *testing.B) {
	var readRate, rateErr float64
	for i := 0; i < b.N; i++ {
		ch, err := experiments.RunCharacterization(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		readRate = ch.ReadRateHz
		rateErr = ch.EstimatedRateBPM - ch.TrueRateBPM
		if rateErr < 0 {
			rateErr = -rateErr
		}
	}
	b.ReportMetric(readRate, "read_rate_hz")
	b.ReportMetric(rateErr, "rate_err_bpm")
}

// BenchmarkFig12Distance regenerates Fig. 12: accuracy at 1-6 m
// (paper: 98.0% at 1 m, above 90% through 6 m).
func BenchmarkFig12Distance(b *testing.B) {
	var points []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig12Distance(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAccuracy(b, "d", points)
}

// BenchmarkFig13Users regenerates Fig. 13: accuracy with 1-4 users
// (paper: ≈95% throughout).
func BenchmarkFig13Users(b *testing.B) {
	var points []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig13Users(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAccuracy(b, "u", points)
}

// BenchmarkFig14Contention regenerates Fig. 14: accuracy with 0-30
// contending tags (paper: 91.0% at 30).
func BenchmarkFig14Contention(b *testing.B) {
	var points []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig14Contention(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAccuracy(b, "c", points)
}

// BenchmarkFig15Orientation regenerates Fig. 15: read rate and RSSI
// versus orientation (paper: 50 Hz facing → 10 Hz at 90°, none past).
func BenchmarkFig15Orientation(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 2
	var points []experiments.OrientationPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig15Orientation(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.ReadRateHz, "deg"+trimFloat(p.OrientationDeg)+"_hz")
	}
}

// BenchmarkFig16OrientationAccuracy regenerates Fig. 16: accuracy at
// 0-90° with LOS (paper: 90% → 85%).
func BenchmarkFig16OrientationAccuracy(b *testing.B) {
	var points []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig16OrientationAccuracy(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAccuracy(b, "deg", points)
}

// BenchmarkFig17Posture regenerates Fig. 17: accuracy sitting,
// standing, lying (paper: all above 90%).
func BenchmarkFig17Posture(b *testing.B) {
	var points []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig17Posture(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAccuracy(b, "", points)
}

// BenchmarkRadarBaselineMultiUser regenerates the motivating
// comparison (§I/§II): CW-radar sensing collapses with multiple users
// while TagBreathe does not.
func BenchmarkRadarBaselineMultiUser(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 3
	var points []experiments.ComparisonPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.RadarComparison(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.TagBreatheAccuracy*100, "tb_u"+trimFloat(float64(p.Users))+"_%")
		b.ReportMetric(p.RadarAccuracy*100, "radar_u"+trimFloat(float64(p.Users))+"_%")
	}
}

// BenchmarkAblationFusion regenerates the §IV-C design comparison:
// full fusion vs single tag vs RSSI/Doppler/FFT-peak front ends on a
// weak-signal scenario.
func BenchmarkAblationFusion(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 5
	var points []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.FusionAblation(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Accuracy*100, p.Estimator+"_%")
	}
}

// BenchmarkAblationWindow regenerates the §IV-B pitfall study:
// zero-crossing vs FFT-peak across window lengths.
func BenchmarkAblationWindow(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 5
	var points []experiments.WindowPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.WindowStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.ZeroCrossingAccuracy*100, "zc_w"+trimFloat(p.WindowSec)+"_%")
		b.ReportMetric(p.FFTPeakAccuracy*100, "fft_w"+trimFloat(p.WindowSec)+"_%")
	}
}

// BenchmarkAblationFilter regenerates the §IV-B FFT-vs-FIR filter
// comparison.
func BenchmarkAblationFilter(b *testing.B) {
	var points []experiments.AblationPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.FilterAblation(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Accuracy*100, p.Estimator+"_%")
	}
}

// BenchmarkExtensionTxPower sweeps Table I's 15-30 dBm transmit power
// range, an axis the paper tabulates but does not plot.
func BenchmarkExtensionTxPower(b *testing.B) {
	var points []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.TxPowerSweep(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAccuracy(b, "dbm", points)
}

// BenchmarkExtensionTagsPerUser sweeps Table I's 1-3 tags-per-user
// range, quantifying the fusion gain directly.
func BenchmarkExtensionTagsPerUser(b *testing.B) {
	var points []experiments.AccuracyPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.TagsPerUserSweep(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportAccuracy(b, "t", points)
}

// BenchmarkAblationChannelGrouping regenerates the §IV-A.3 ablation:
// Eq. 3's per-channel stream separation versus naive cross-hop
// differencing, across regulatory channel plans.
func BenchmarkAblationChannelGrouping(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 4
	var points []experiments.ChannelPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.ChannelStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Grouped*100, p.Plan+"_grouped_%")
		b.ReportMetric(p.Naive*100, p.Plan+"_naive_%")
	}
}

// BenchmarkExtensionSelectFilter regenerates the Gen2-Select
// countermeasure study: monitoring-tag read rate and accuracy under
// contention, with and without a Select mask.
func BenchmarkExtensionSelectFilter(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 3
	var points []experiments.SelectPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.SelectStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Plain*100, "plain_c"+trimFloat(float64(p.ContendingTags))+"_%")
		b.ReportMetric(p.Selected*100, "sel_c"+trimFloat(float64(p.ContendingTags))+"_%")
	}
}

// BenchmarkExtensionHeartRate regenerates the cardiac study: heart
// rate error and detection confidence across reader phase-noise
// floors.
func BenchmarkExtensionHeartRate(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 3
	var points []experiments.HeartPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.HeartStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.MeanAbsErrBPM, "floor"+trimFloat(p.PhaseFloorRad*1000)+"mrad_err_bpm")
	}
}

// BenchmarkExtensionMotionRejection regenerates the motion-artifact
// study: accuracy with and without rejection as fidgeting intensifies.
func BenchmarkExtensionMotionRejection(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 3
	var points []experiments.MotionPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.MotionStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Plain*100, "plain_f"+trimFloat(p.FidgetEverySec)+"_%")
		b.ReportMetric(p.Rejected*100, "rej_f"+trimFloat(p.FidgetEverySec)+"_%")
	}
}

// BenchmarkExtensionTagModels regenerates the §V tag-diversity check.
func BenchmarkExtensionTagModels(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 3
	var points []experiments.TagModelPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.TagModelStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Accuracy*100, p.Model+"_%")
	}
}

// BenchmarkExtensionLOS regenerates Table I's propagation-path row.
func BenchmarkExtensionLOS(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 3
	var points []experiments.LOSPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.LOSStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, p := range points {
		name := "los_%"
		if i == 1 {
			name = "nlos_%"
		}
		b.ReportMetric(p.Accuracy*100, name)
	}
}

// BenchmarkExtensionSessions regenerates the Gen2 session study:
// which session/target configurations sustain continuous monitoring.
func BenchmarkExtensionSessions(b *testing.B) {
	opt := benchOptions()
	opt.Trials = 2
	var points []experiments.SessionPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.SessionStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.ReadRateHz, strings.ReplaceAll(p.Config, " ", "_")+"_hz")
	}
}
