package core_test

import (
	"encoding/binary"
	"fmt"
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
	df := core.NewDifferencer()
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
	binSec := 0.0625 // Eq. 6's bin width
	bins := core.FuseBins(samples, binSec, t0, t1)
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
// flush against the batch fuser bit for bit.
func TestBinFuserMatchesBatchFusion(t *testing.T) {
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
	want := core.FuseBins(samples, 0.0625, t0, t1)
	fz := core.NewBinFuser(0.0625, t0, 64)
	for i, s := range samples {
		fz.Add(s)
		if i%37 == 0 {
			fz.SettleBefore(s.T) // exercise the pending hold
		}
	}
	got := fz.Flush(t0, t1)
	if len(got) != len(want) {
		t.Fatalf("%d bins, batch %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bin %d: %.17g, batch %.17g", i, got[i], want[i])
		}
	}
}

// FuzzBinFuser feeds adversarial displacement streams — out-of-order
// times, duplicate timestamps, inverted accrual intervals — through a
// BinFuser with interleaved settles and evictions. The fuser must not
// panic and must flush finite bins, and an eviction must leave every
// bin from the cutoff's on bit for bit as it was, while the ring grows
// and shrinks around the live span.
//
// The same records also drive an in-order stream the way the streaming
// engine does (streamedFuser): sequential reads up to the finality
// bound, each followed by an eviction that keeps the last bin read as
// the guard, with later samples reaching back into that guard bin. The
// streamed fuser must agree bit for bit with a twin fed the same
// samples and never read.
func FuzzBinFuser(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{200, 100, 0, 0, 255, 255, 9, 9, 9, 1, 2, 3})
	// Samples 250 s in grow the ring to 4096 bins once they settle;
	// evicting all but the last 2 s, and then 1 s more, shrinks it.
	f.Add([]byte{0, 250, 16, 8, 0, 0, 8, 250, 0, 3, 1, 0, 8, 250, 0, 3, 2, 16, 8, 250, 0, 3, 2, 8})
	// An in-order stream read every other sample, with accruals from
	// 0 to 4 s long: the longer ones reach back into the guard bin the
	// read before kept.
	var guard []byte
	for i := 0; i < 96; i++ {
		guard = append(guard, 8, 0, byte(i*13), byte(i*37), byte(1+i%2), 7)
	}
	f.Add(guard)
	// Dense reads: accruals of zero or one bin, every other record
	// reading and evicting.
	var dense []byte
	for i := 0; i < 96; i++ {
		dense = append(dense, 2, 0, byte(i%2), byte(i*29), byte(1+i%2), 1)
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		const binSec = 0.0625
		fz := core.NewBinFuser(binSec, 0, 16)
		sf := newStreamedFuser(binSec)
		var kept []float64
		for len(data) >= 6 {
			rec := data[:6]
			data = data[6:]
			sf.step(rec)
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
				cutoff := tt - float64(rec[5])/8
				lo := int(cutoff / binSec) // the fuser's bin of cutoff (origin 0)
				kept = kept[:0]
				for i := lo; i < fz.Hi(); i++ {
					kept = append(kept, fz.ValueAt(i))
				}
				fz.EvictBefore(cutoff)
				for j, v := range kept {
					if g := fz.ValueAt(lo + j); math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("bin %d was %v before EvictBefore(%v), %v after", lo+j, v, cutoff, g)
					}
				}
			}
		}
		bins := fz.Flush(0, 256)
		for i, v := range bins {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("bin %d is %v", i, v)
			}
		}
		sf.check(t)
	})
}

// streamedFuser is FuzzBinFuser's in-order stream: a fuser read and
// evicted as Engine.advance and Engine.EvictBefore do, beside a twin
// that only fuses.
type streamedFuser struct {
	binSec   float64
	fz, twin *core.BinFuser
	t        float64         // the newest sample time
	next     int             // the next bin to read
	reads    map[int]float64 // every bin read, by index
	guards   map[int]bool    // bins kept as the guard after a read
}

func newStreamedFuser(binSec float64) *streamedFuser {
	return &streamedFuser{
		binSec: binSec,
		fz:     core.NewBinFuser(binSec, 0, 16),
		twin:   core.NewBinFuser(binSec, 0, 16),
		reads:  map[int]float64{},
		guards: map[int]bool{},
	}
}

// step adds one in-order sample built from rec to both fusers; its
// accrual may start anywhere from 4 s back up to the guard bin's left
// edge, never below it, as the engine's finality bound guarantees.
// Then it settles, or reads and evicts, as rec asks.
func (sf *streamedFuser) step(rec []byte) {
	sf.t += float64(rec[0]%16) / 32 // 0 repeats the timestamp
	tp := sf.t - float64(rec[2]%64)/16
	if sf.next > 0 {
		tp = max(tp, float64(sf.next-1)*sf.binSec)
	}
	s := core.DisplacementSample{T: sf.t, TPrev: tp, D: (float64(int8(rec[3])) + 0.5) / 8}
	sf.fz.Add(s)
	sf.twin.Add(s)
	switch rec[4] % 3 {
	case 1:
		sf.fz.SettleBefore(sf.t)
		sf.twin.SettleBefore(sf.t)
	case 2:
		// Bins before the held samples' accrual start are final.
		limit := min(sf.fz.HeldFloor(), sf.t)
		lim := min(int(limit/sf.binSec), sf.next+1+int(rec[5]%64))
		if lim <= sf.next {
			return
		}
		// ValueAt sums the differences from the guard on, the same
		// additions in the same order as advance's running sum.
		for i := sf.next; i < lim; i++ {
			sf.reads[i] = sf.fz.ValueAt(i)
		}
		sf.next = lim
		sf.guards[lim-1] = true
		sf.fz.EvictBefore(float64(lim-1) * sf.binSec)
	}
}

// check settles both fusers and compares: every bin read, but a guard
// (a later sample may still reach it), and every bin not yet read must
// equal the twin's bit for bit. A deposit into a guard that was not
// carried into the bins after it would show there as a step.
func (sf *streamedFuser) check(t *testing.T) {
	t1 := sf.t + 1
	want := sf.twin.Flush(0, t1)
	sf.fz.SettleBefore(math.Inf(1))
	for i, v := range want {
		got, ok := sf.reads[i]
		if i >= sf.next {
			got, ok = sf.fz.ValueAt(i), true
		}
		if !ok || (i < sf.next && sf.guards[i]) {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("bin %d (read up to %d): streamed %.17g, twin %.17g", i, sf.next, got, v)
		}
	}
}

// TestBinFuserWriteBelowReadLeavesNoStep reads a fuser past a sample
// stream, then deposits samples that reach below the read position:
// into the guard bin, below the deposit floor (renormalized over what
// is left), and wholly below it (dropped). Each adds its displacement
// to bins up to its end and nothing after: once they end, the bins
// read exactly what a fuser that never saw them reads.
func TestBinFuserWriteBelowReadLeavesNoStep(t *testing.T) {
	const binSec = 0.0625
	fz := core.NewBinFuser(binSec, 0, 16)
	twin := core.NewBinFuser(binSec, 0, 16)
	for i := 1; i <= 80; i++ {
		tt := float64(i) * 0.05
		s := core.DisplacementSample{T: tt, TPrev: tt - 0.05, D: 1e-3 * math.Sin(float64(i))}
		fz.Add(s)
		twin.Add(s)
	}
	fz.SettleBefore(math.Inf(1))
	twin.SettleBefore(math.Inf(1))
	const read = 48 // bins [0, 48) read: 3 s
	for i := 0; i < read; i++ {
		fz.ValueAt(i)
	}
	fz.EvictBefore((read - 1) * binSec) // the guard is bin 47
	for _, s := range []core.DisplacementSample{
		{T: 3.5, TPrev: 2.95, D: 0.004},  // from the guard bin
		{T: 3.7, TPrev: 1.0, D: -0.003},  // from below the floor
		{T: 2.5, TPrev: 2.0, D: 0.005},   // wholly below the floor
		{T: 3.6, TPrev: 3.6, D: 0.002},   // degenerate, past the read position
		{T: 3.65, TPrev: 3.62, D: 0.001}, // out of order
	} {
		fz.Add(s)
	}
	fz.SettleBefore(math.Inf(1))
	end := 3.7 // the latest a late sample ends
	for i := int(end/binSec) + 1; i < 200; i++ {
		if g, w := fz.ValueAt(i), twin.ValueAt(i); math.Abs(g-w) > 1e-15 {
			t.Fatalf("bin %d reads %.3g, %.3g without the late samples: a step of %.3g",
				i, g, w, g-w)
		}
	}
}

// TestBinFuserDropsNonFiniteSamples deposits an infinite and a NaN
// displacement, as a report on 0 Hz produces, among finite ones: the
// bins must stay finite and equal those of the finite samples alone.
func TestBinFuserDropsNonFiniteSamples(t *testing.T) {
	fz := core.NewBinFuser(0.0625, 0, 16)
	twin := core.NewBinFuser(0.0625, 0, 16)
	for i := 1; i <= 40; i++ {
		tt := float64(i) * 0.1
		s := core.DisplacementSample{T: tt, TPrev: tt - 0.3, D: 1e-3 * math.Cos(float64(i))}
		fz.Add(s)
		twin.Add(s)
		if i == 10 || i == 20 {
			s.D = math.Inf(1)
			if i == 20 {
				s.D = math.NaN()
			}
			fz.Add(s)
		}
	}
	got, want := fz.Flush(0, 5), twin.Flush(0, 5)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bin %d: %v, %v without the non-finite samples", i, got[i], want[i])
		}
	}
}

// BenchmarkBinFuserAdd prices one Eq. 6 deposit (plus its share of
// eviction) for samples spread over 1, 8 and 32 bins: a sample writes
// at most four slots, so the cost should not grow with the span.
func BenchmarkBinFuserAdd(b *testing.B) {
	const binSec = 0.0625
	for _, span := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("span=%d", span), func(b *testing.B) {
			fz := core.NewBinFuser(binSec, 0, 0)
			w := float64(span) * binSec
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tt := float64(i) * binSec
				fz.Add(core.DisplacementSample{T: tt + w, TPrev: tt + 0.01, D: 1e-3})
				if i%64 == 63 {
					fz.EvictBefore(tt - 1)
				}
			}
		})
	}
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
