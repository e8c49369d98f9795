package core_test

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/epc"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
	"tagbreathe/internal/sim"
	"tagbreathe/internal/units"
)

// tickResult records one TickUpdate outcome at one stream time.
type tickResult struct {
	asOf    time.Duration
	feedEnd int // reports [0, feedEnd) were fed before the tick
	up      core.RateUpdate
	ok      bool
}

// driveIncremental replays the monitor's shard discipline over a
// report stream: feed each report, tick on UpdateEvery boundaries,
// reset tick stats, and — when evict is set — release the window
// (which in streaming mode also rebases the Eq. 7 accumulator into
// the filter state). With evict false the engine keeps every bin, the
// unbounded-memory reference.
func driveIncremental(cfg core.Config, opts core.EngineOptions, reports []reader.TagReport,
	window, stride time.Duration, evict bool) []tickResult {

	eng := core.NewEngine(cfg, opts)
	var out []tickResult
	nextTick := reports[0].Timestamp + window
	for i, r := range reports {
		eng.Feed(r)
		if r.Timestamp >= nextTick {
			asOf := r.Timestamp
			up, ok := eng.TickUpdate(asOf.Seconds())
			out = append(out, tickResult{asOf: asOf, feedEnd: i + 1, up: up, ok: ok})
			eng.ResetTickStats()
			if evict {
				eng.EvictBefore((asOf - window).Seconds())
			}
			nextTick += stride
			if nextTick <= asOf {
				nextTick = asOf + stride
			}
		}
	}
	return out
}

// TestEngineIncrementalMatchesOneShot is the engine's core property:
// the bounded-state machinery — ring-buffer eviction and, in
// streaming mode, folding the Eq. 7 accumulator into the filter state
// (Rebase) — changes nothing. Every tick of the evicting engine must
// match (a) the same schedule run with unbounded memory, on every
// field, and (b) a fresh engine fed the same reports and ticked once,
// on every pipeline output (Reads and antenna stats are per-tick by
// design, so the one-shot comparison skips them). Recompute modes are
// bit-identical by construction; streaming mode is allowed 1e-9 for
// the rebase rounding.
func TestEngineIncrementalMatchesOneShot(t *testing.T) {
	modes := []struct {
		name string
		mode core.FilterMode
	}{
		{"fft", core.FilterFFT},
		{"fir_batch", core.FilterFIRBatch},
		{"fir_streaming", core.FilterFIRStreaming},
	}
	patterns := []struct {
		name string
		kind sim.PatternKind
	}{
		{"metronome", sim.PatternMetronome},
		{"natural", sim.PatternNatural},
		{"irregular", sim.PatternIrregular},
	}
	for _, md := range modes {
		for _, pat := range patterns {
			t.Run(md.name+"/"+pat.name, func(t *testing.T) {
				res := runScenario(t, 91, func(sc *sim.Scenario) {
					sc.Duration = 90 * time.Second
					for i := range sc.Users {
						sc.Users[i].Pattern = pat.kind
					}
				})
				cfg := core.Config{Users: res.UserIDs, Filter: md.mode}
				window, stride := 25*time.Second, time.Second
				opts := core.EngineOptions{
					Window:     window.Seconds(),
					TickStride: stride.Seconds(),
					UserID:     res.UserIDs[0],
				}
				ticks := driveIncremental(cfg, opts, res.Reports, window, stride, true)
				if len(ticks) < 10 {
					t.Fatalf("only %d ticks over 90 s", len(ticks))
				}
				// (a) Unbounded-memory twin, same schedule: every tick,
				// every field.
				full := driveIncremental(cfg, opts, res.Reports, window, stride, false)
				if len(full) != len(ticks) {
					t.Fatalf("evicting run ticked %d times, unbounded %d", len(ticks), len(full))
				}
				anyOK := false
				for i := range ticks {
					got, want := ticks[i], full[i]
					if got.ok != want.ok {
						t.Fatalf("tick %d (asOf %v): evicting ok=%v, unbounded ok=%v",
							i, got.asOf, got.ok, want.ok)
					}
					if !got.ok {
						continue
					}
					anyOK = true
					if got.up.Crossings != want.up.Crossings ||
						got.up.AntennaPort != want.up.AntennaPort ||
						got.up.Reads != want.up.Reads {
						t.Fatalf("tick %d: evicting %+v, unbounded %+v", i, got.up, want.up)
					}
					if math.Abs(got.up.RateBPM-want.up.RateBPM) > 1e-9 ||
						math.Abs(got.up.InstantBPM-want.up.InstantBPM) > 1e-9 {
						t.Fatalf("tick %d: rate %.12f/%.12f, unbounded %.12f/%.12f",
							i, got.up.RateBPM, got.up.InstantBPM, want.up.RateBPM, want.up.InstantBPM)
					}
				}
				if !anyOK {
					t.Fatal("no tick produced an update; nothing was compared")
				}
				// (b) Fresh engine fed the same reports, ticked once at
				// the final boundary.
				last := ticks[len(ticks)-1]
				ref := core.NewEngine(cfg, opts)
				for _, r := range res.Reports[:last.feedEnd] {
					ref.Feed(r)
				}
				want, wantOK := ref.TickUpdate(last.asOf.Seconds())
				if last.ok != wantOK {
					t.Fatalf("final tick: incremental ok=%v, one-shot ok=%v", last.ok, wantOK)
				}
				if last.ok {
					if last.up.Crossings != want.Crossings || last.up.AntennaPort != want.AntennaPort {
						t.Fatalf("final tick: incremental %+v, one-shot %+v", last.up, want)
					}
					if math.Abs(last.up.RateBPM-want.RateBPM) > 1e-9 ||
						math.Abs(last.up.InstantBPM-want.InstantBPM) > 1e-9 {
						t.Fatalf("final tick: rate %.12f/%.12f, one-shot %.12f/%.12f",
							last.up.RateBPM, last.up.InstantBPM, want.RateBPM, want.InstantBPM)
					}
				}
			})
		}
	}
}

// legacyEstimate is the pre-engine estimateShard pipeline, rebuilt
// verbatim from the exported primitives: §IV-D.3 selection, selected-
// port differencing, batch Eq. 6 fusion, §IV-B extraction, Eq. 5.
func legacyEstimate(reports []reader.TagReport, uid uint64, t0, t1 float64, cfg core.Config) *core.UserEstimate {
	var mine []reader.TagReport
	for _, r := range reports {
		if r.EPC.UserID() == uid {
			mine = append(mine, r)
		}
	}
	selected := core.SelectAntenna(core.RankAntennas(mine, cfg, t1-t0))
	port, ok := selected[uid]
	if !ok {
		return nil
	}
	df := core.NewDifferencer(cfg)
	var samples []core.DisplacementSample
	reads := 0
	tagsSeen := make(map[uint32]bool)
	for _, r := range mine {
		if r.AntennaPort != port {
			continue
		}
		reads++
		tagsSeen[r.EPC.TagID()] = true
		if d, ok := df.Ingest(r); ok {
			samples = append(samples, d.Sample)
		}
	}
	if len(samples) == 0 {
		return nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].T < samples[j].T })
	binSec := 0.0625 // the default BinInterval
	bins := core.FuseBins(samples, binSec, t0, t1)
	if cfg.LiteralBinning {
		bins = core.FuseBinsLiteral(samples, binSec, t0, t1)
	}
	sig, err := core.ExtractBreath(bins, binSec, t0, cfg)
	if err != nil {
		return nil
	}
	est := &core.UserEstimate{
		UserID:      uid,
		RateBPM:     sig.OverallRateBPM(),
		RateSeries:  sig.InstantRateSeriesBPM(7),
		Signal:      sig,
		AntennaPort: port,
		Reads:       reads,
		TagsSeen:    len(tagsSeen),
	}
	if est.RateBPM <= 0 {
		return nil
	}
	return est
}

// TestEstimateMatchesLegacyPipeline pins that rebuilding estimateShard
// on the stage engine changed nothing: the engine's flush reproduces
// the legacy batch pipeline's numbers for both recompute filter modes.
func TestEstimateMatchesLegacyPipeline(t *testing.T) {
	res := runScenario(t, 92, func(sc *sim.Scenario) {
		sc.Users = sim.SideBySide(2, 4, 10, 14)
		sc.Duration = 50 * time.Second
	})
	t0 := res.Reports[0].Timestamp.Seconds()
	t1 := res.Reports[len(res.Reports)-1].Timestamp.Seconds()
	for _, mode := range []core.FilterMode{core.FilterFFT, core.FilterFIRBatch} {
		cfg := core.Config{Users: res.UserIDs, Workers: 1, Filter: mode}
		ests, err := core.Estimate(res.Reports, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, uid := range res.UserIDs {
			want := legacyEstimate(res.Reports, uid, t0, t1, cfg)
			got := ests[uid]
			if (got == nil) != (want == nil) {
				t.Fatalf("mode=%v user %x: engine nil=%v, legacy nil=%v",
					mode, uid, got == nil, want == nil)
			}
			if got == nil {
				continue
			}
			if got.AntennaPort != want.AntennaPort || got.Reads != want.Reads ||
				got.TagsSeen != want.TagsSeen {
				t.Errorf("mode=%v user %x: engine %+v, legacy %+v", mode, uid, got, want)
			}
			if math.Abs(got.RateBPM-want.RateBPM) > 1e-12 {
				t.Errorf("mode=%v user %x: rate %.15f, legacy %.15f",
					mode, uid, got.RateBPM, want.RateBPM)
			}
			if len(got.Signal.Crossings) != len(want.Signal.Crossings) {
				t.Errorf("mode=%v user %x: %d crossings, legacy %d",
					mode, uid, len(got.Signal.Crossings), len(want.Signal.Crossings))
			}
			if len(got.Signal.Samples) != len(want.Signal.Samples) {
				t.Fatalf("mode=%v user %x: %d samples, legacy %d",
					mode, uid, len(got.Signal.Samples), len(want.Signal.Samples))
			}
			for i := range got.Signal.Samples {
				if math.Abs(got.Signal.Samples[i]-want.Signal.Samples[i]) > 1e-12 {
					t.Fatalf("mode=%v user %x sample %d: %.15g, legacy %.15g",
						mode, uid, i, got.Signal.Samples[i], want.Signal.Samples[i])
				}
			}
		}
	}
}

// TestMonitorStreamingFilterMode runs the full Monitor in streaming-FIR
// mode over a long paced scenario: updates arrive and, once the causal
// TestFilterSelectorOneMeaning pins Config.Filter as the one filter
// switch: ExtractBreath and Estimate map every value to the same
// band-pass, and the zero Config is FilterFFT bit for bit.
func TestFilterSelectorOneMeaning(t *testing.T) {
	const binSec = 0.0625
	bins := make([]float64, int(60/binSec))
	x := func(tt float64) float64 { return 0.005 * math.Sin(2*math.Pi*0.2*tt) }
	for i := range bins {
		bins[i] = x(float64(i+1)*binSec) - x(float64(i)*binSec)
	}
	extract := func(cfg core.Config) []float64 {
		t.Helper()
		sig, err := core.ExtractBreath(bins, binSec, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sig.Samples
	}
	res := runScenario(t, 93, nil)
	uid := res.UserIDs[0]
	estimate := func(cfg core.Config) []float64 {
		t.Helper()
		cfg.Users = res.UserIDs
		ests, err := core.Estimate(res.Reports, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ests[uid] == nil {
			t.Fatalf("no estimate under %+v", cfg)
		}
		return ests[uid].Signal.Samples
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}

	for _, entry := range []struct {
		name string
		run  func(core.Config) []float64
	}{{"ExtractBreath", extract}, {"Estimate", estimate}} {
		fft := entry.run(core.Config{Filter: core.FilterFFT})
		if !same(entry.run(core.Config{}), fft) {
			t.Errorf("%s: the zero Config is not FilterFFT", entry.name)
		}
		if same(entry.run(core.Config{Filter: core.FilterFIRBatch}), fft) {
			t.Errorf("%s: FilterFIRBatch ran the FFT filter", entry.name)
		}
	}
	// ExtractBreath has no streaming form: it runs FFT for it.
	if !same(extract(core.Config{Filter: core.FilterFIRStreaming}), extract(core.Config{})) {
		t.Error("ExtractBreath: FilterFIRStreaming is not the FFT filter")
	}
	// MotionRejection needs the whole window, so the engine runs
	// streaming as batch FIR under it.
	motion := estimate(core.Config{Filter: core.FilterFIRBatch, MotionRejection: true})
	if !same(estimate(core.Config{Filter: core.FilterFIRStreaming, MotionRejection: true}), motion) {
		t.Error("Estimate: FilterFIRStreaming under MotionRejection is not FilterFIRBatch")
	}
}

// chain is warm, track the true rate.
func TestMonitorStreamingFilterMode(t *testing.T) {
	res := runScenario(t, 93, func(sc *sim.Scenario) {
		sc.Duration = 2 * time.Minute
	})
	updates, err := core.MonitorStream(res.Reports, core.MonitorConfig{
		Pipeline: core.Config{Users: res.UserIDs, Filter: core.FilterFIRStreaming},
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := res.TrueRateBPM[res.UserIDs[0]]
	var late []float64
	for _, u := range updates {
		if u.Time >= time.Minute {
			late = append(late, u.RateBPM)
		}
	}
	if len(late) < 10 {
		t.Fatalf("only %d settled updates in the second minute", len(late))
	}
	sort.Float64s(late)
	median := late[len(late)/2]
	if math.Abs(median-truth) > 1.5 {
		t.Errorf("streaming-mode median rate %.2f bpm, truth %.2f", median, truth)
	}
}

// TestTickReadRateSingleRead pins the antenna-selection fix: an
// antenna whose tick window holds a single read is scored over the
// tick stride, not over a fictitious one-second span.
func TestTickReadRateSingleRead(t *testing.T) {
	reg := obs.NewRegistry()
	mm := core.NewMonitorMetrics(reg)
	const uid = 7
	eng := core.NewEngine(core.Config{}, core.EngineOptions{
		Window:     25,
		TickStride: 2, // e.g. UpdateEvery = 2 s
		UserID:     uid,
		Metrics:    mm,
	})
	mk := func(port int, ts time.Duration) reader.TagReport {
		return reader.TagReport{
			EPC:         epc.NewUserTagEPC(uid, 1),
			AntennaPort: port,
			Frequency:   units.Hertz(915e6),
			Timestamp:   ts,
			RSSI:        units.DBm(-60),
		}
	}
	// Antenna 1: a single read this tick. Antenna 2: four reads over
	// one second (4 Hz).
	eng.Feed(mk(1, 28*time.Second))
	for i := 0; i < 4; i++ {
		eng.Feed(mk(2, 29*time.Second+time.Duration(i)*250*time.Millisecond))
	}
	eng.TickUpdate(30)
	if got := mm.AntennaReadRate.With(core.UserLabel(uid), core.ReaderLabel(""), "1").Value(); got != 0.5 {
		t.Errorf("single-read antenna rate = %v reads/s, want 0.5 (1 read / 2 s stride)", got)
	}
	if got := mm.AntennaReadRate.With(core.UserLabel(uid), core.ReaderLabel(""), "2").Value(); math.Abs(got-4/0.75) > 1e-9 {
		t.Errorf("antenna 2 rate = %v reads/s, want %v", got, 4/0.75)
	}
}

// TestBinFuserMatchesBatchFusion drives random in-order displacement
// streams through a BinFuser with interleaved settles and compares the
// flush against the batch fuser, both modes.
func TestBinFuserMatchesBatchFusion(t *testing.T) {
	for _, literal := range []bool{false, true} {
		samples := make([]core.DisplacementSample, 0, 500)
		tprev := 0.13
		tt := 0.4
		for i := 0; i < 500; i++ {
			d := math.Sin(float64(i) * 0.7)
			samples = append(samples, core.DisplacementSample{T: tt, TPrev: tprev, D: d})
			tprev = tt
			tt += 0.05 + 0.3*math.Abs(math.Sin(float64(i)*1.3))
		}
		t0, t1 := 0.0, samples[len(samples)-1].T
		var want []float64
		if literal {
			want = core.FuseBinsLiteral(samples, 0.0625, t0, t1)
		} else {
			want = core.FuseBins(samples, 0.0625, t0, t1)
		}
		fz := core.NewBinFuser(0.0625, literal, t0, 64)
		for i, s := range samples {
			fz.Add(s)
			if i%37 == 0 {
				fz.SettleBefore(s.T) // exercise the pending hold
			}
		}
		got := fz.Flush(t0, t1)
		if len(got) != len(want) {
			t.Fatalf("literal=%v: %d bins, batch %d", literal, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("literal=%v bin %d: %.15g, batch %.15g", literal, i, got[i], want[i])
			}
		}
	}
}

// FuzzBinFuser feeds adversarial displacement streams — out-of-order
// times, duplicate timestamps, inverted accrual intervals — through a
// BinFuser with interleaved settles and evictions. The fuser must not
// panic and must flush finite bins.
func FuzzBinFuser(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, false)
	f.Add([]byte{200, 100, 0, 0, 255, 255, 9, 9, 9, 1, 2, 3}, true)
	f.Fuzz(func(t *testing.T, data []byte, literal bool) {
		fz := core.NewBinFuser(0.0625, literal, 0, 16)
		for len(data) >= 6 {
			rec := data[:6]
			data = data[6:]
			// Bounded, hostile coordinates: times in [0, 256), spans
			// possibly negative or zero, duplicates common.
			tt := float64(binary.LittleEndian.Uint16(rec[0:2])) / 256
			tp := tt - (float64(int8(rec[2])))/16
			d := (float64(int8(rec[3])) + 0.5) / 8
			fz.Add(core.DisplacementSample{T: tt, TPrev: tp, D: d})
			switch rec[4] % 3 {
			case 1:
				fz.SettleBefore(tt)
			case 2:
				fz.EvictBefore(tt - float64(rec[5])/8)
			}
		}
		bins := fz.Flush(0, 256)
		for i, v := range bins {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("bin %d is %v", i, v)
			}
		}
	})
}

// TestCrossingTrackerWindowed is a cross-package sanity check that the
// engine's crossing pruning plus Eq. 5 matches computing the rate over
// the full batch crossing list restricted to the window.
func TestCrossingTrackerWindowed(t *testing.T) {
	tr := sigproc.NewCrossingTracker(0.4)
	var all []sigproc.ZeroCrossing
	for i := 0; i < 2000; i++ {
		tt := float64(i) * 0.0625
		v := math.Sin(2 * math.Pi * 0.2 * tt)
		if zc, ok := tr.Push(tt, v); ok {
			all = append(all, zc)
		}
	}
	if len(all) < 10 {
		t.Fatalf("only %d crossings", len(all))
	}
	// Windowed rate over the last 25 s must land on 0.2 Hz = 12 bpm.
	t0 := 2000*0.0625 - 25
	var win []sigproc.ZeroCrossing
	for _, c := range all {
		if c.T >= t0 {
			win = append(win, c)
		}
	}
	rate := float64(len(win)-1) / (2 * (win[len(win)-1].T - win[0].T)) * 60
	if math.Abs(rate-12) > 0.5 {
		t.Errorf("windowed rate %.2f bpm, want 12", rate)
	}
}
