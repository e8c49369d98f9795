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
		steadySec      = 60 // past the window fill and the chain's ~26 s warm-up
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
