package core_test

import (
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/sim"
)

// benchReports simulates one default two-minute session once and
// shares it across benchmarks.
func benchReports(b *testing.B) *sim.Result {
	b.Helper()
	sc := sim.DefaultScenario()
	sc.Seed = 1
	res, err := sc.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSimulate measures the substrate itself: one two-minute
// Table I scenario (≈7200 reads through RF, MAC, and body models).
func BenchmarkSimulate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := sim.DefaultScenario()
		sc.Seed = int64(i + 1)
		if _, err := sc.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateBatch measures the full batch pipeline over a
// two-minute, three-tag session.
func BenchmarkEstimateBatch(b *testing.B) {
	res := benchReports(b)
	cfg := core.Config{Users: res.UserIDs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Estimate(res.Reports, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Reports)), "reads/op")
}

// BenchmarkDifferencerIngest measures the per-report hot path of the
// streaming pipeline's first stage.
func BenchmarkDifferencerIngest(b *testing.B) {
	res := benchReports(b)
	df := core.NewDifferencer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		df.Ingest(res.Reports[i%len(res.Reports)])
	}
}

// BenchmarkMonitorThroughput measures the streaming monitor end to
// end: reports per second of wall time through both pipelined stages.
func BenchmarkMonitorThroughput(b *testing.B) {
	res := benchReports(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
			Pipeline:    core.Config{Users: res.UserIDs},
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
		b.ReportMetric(float64(len(res.Reports))/perOp, "reports/s")
	}
}

// BenchmarkExtractBreath measures the FFT-filter extraction stage on a
// two-minute fused stream.
func BenchmarkExtractBreath(b *testing.B) {
	bins := make([]float64, 1920) // 120 s at 16 Hz
	for i := range bins {
		bins[i] = 0.001 * float64(i%16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExtractBreath(bins, 0.0625, 0, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
