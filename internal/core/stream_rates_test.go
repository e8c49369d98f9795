package core_test

import (
	"math"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/sim"
)

// TestStreamingMatchesFFTAcrossRates runs the streaming chain and the
// FFT reference side by side, one engine each per user, over Table I's
// whole 5–30 bpm range (3 tags at 8 Hz with read jitter, 25 s window,
// 1 s ticks). Once the streaming chain is warm, every tick of both
// must produce an update, and the streaming rate must stay within
// streamVsFFTBPM of the FFT rate.
func TestStreamingMatchesFFTAcrossRates(t *testing.T) {
	const (
		streamVsFFTBPM = 1.0
		window         = 25.0
		streamSec      = 120
		steadySec      = 60 // past the window fill and the chain's 18.6 s warm-up
	)
	syn, err := sim.NewSynth(sim.SynthConfig{Users: 26, BaseRateBPM: 5, RateSpreadBPM: 26, JitterFrac: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ fft, stream *core.Engine }
	engines := map[uint64]pair{}
	var order []uint64
	engine := func(uid uint64, f core.FilterMode) *core.Engine {
		return core.NewEngine(core.Config{Filter: f}, core.EngineOptions{Window: window, TickStride: 1, UserID: uid})
	}
	worst := map[uint64]float64{}
	tick := func(asOf float64) {
		for _, uid := range order {
			p := engines[uid]
			fu, fok := p.fft.TickUpdate(asOf)
			su, sok := p.stream.TickUpdate(asOf)
			for _, e := range []*core.Engine{p.fft, p.stream} {
				e.ResetTickStats()
				e.EvictBefore(asOf - window)
			}
			if asOf < steadySec {
				continue
			}
			bpm := 5 + float64(uid-1)
			if !fok || !sok {
				t.Fatalf("%.0f bpm user at %.0f s: FFT update %v, streaming update %v; want both", bpm, asOf, fok, sok)
			}
			worst[uid] = max(worst[uid], math.Abs(su.RateBPM-fu.RateBPM))
		}
	}
	next := window
	for _, r := range syn.Generate(streamSec * time.Second) {
		for ts := r.Timestamp.Seconds(); ts >= next; next++ {
			tick(next)
		}
		uid := r.EPC.UserID()
		p, ok := engines[uid]
		if !ok {
			p = pair{engine(uid, core.FilterFFT), engine(uid, core.FilterFIRStreaming)}
			engines[uid] = p
			order = append(order, uid)
		}
		p.fft.Feed(r)
		p.stream.Feed(r)
	}
	if len(order) != 26 {
		t.Fatalf("%d users, want 26", len(order))
	}
	for _, uid := range order {
		t.Logf("%2.0f bpm: worst |streaming - FFT| %.3f bpm", 5+float64(uid-1), worst[uid])
		if worst[uid] > streamVsFFTBPM {
			t.Errorf("%.0f bpm user: streaming rate strays %.2f bpm from FFT, want within %.1f", 5+float64(uid-1), worst[uid], streamVsFFTBPM)
		}
	}
}

// TestStreamingFirstUpdateAccurate drives one streaming engine per
// user over the same 5–30 bpm sweep on the Monitor's schedule (first
// tick one 25 s window into the stream, then every second). The first
// update a user gets must be within 1 bpm of the truth, and every user
// at 10 bpm or more must get one by 28 s of stream: past the window,
// the filter's warmup and delay set how soon three crossings exist.
func TestStreamingFirstUpdateAccurate(t *testing.T) {
	const (
		window     = 25.0
		streamSec  = 45
		firstByBPM = 10.0
		firstBySec = 28.0
	)
	syn, err := sim.NewSynth(sim.SynthConfig{Users: 26, BaseRateBPM: 5, RateSpreadBPM: 26, JitterFrac: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[uint64]*core.Engine{}
	var order []uint64
	first := map[uint64]float64{}
	tick := func(asOf float64) {
		for _, uid := range order {
			e := engines[uid]
			u, ok := e.TickUpdate(asOf)
			e.ResetTickStats()
			e.EvictBefore(asOf - window)
			if _, seen := first[uid]; !ok || seen {
				continue
			}
			first[uid] = asOf
			if bpm := 5 + float64(uid-1); math.Abs(u.RateBPM-bpm) > 1 {
				t.Errorf("%.0f bpm user: first update at %.0f s reads %.2f bpm, want within 1", bpm, asOf, u.RateBPM)
			}
		}
	}
	next := window
	for _, r := range syn.Generate(streamSec * time.Second) {
		for ts := r.Timestamp.Seconds(); ts >= next; next++ {
			tick(next)
		}
		uid := r.EPC.UserID()
		e, ok := engines[uid]
		if !ok {
			e = core.NewEngine(core.Config{Filter: core.FilterFIRStreaming}, core.EngineOptions{Window: window, TickStride: 1, UserID: uid})
			engines[uid] = e
			order = append(order, uid)
		}
		e.Feed(r)
	}
	if len(order) != 26 {
		t.Fatalf("%d users, want 26", len(order))
	}
	for _, uid := range order {
		bpm := 5 + float64(uid-1)
		at, ok := first[uid]
		t.Logf("%2.0f bpm: first update at %.0f s (%v)", bpm, at, ok)
		if bpm >= firstByBPM && (!ok || at > firstBySec) {
			t.Errorf("%.0f bpm user: first update at %.0f s (got one: %v), want by %.0f s", bpm, at, ok, firstBySec)
		}
	}
}
