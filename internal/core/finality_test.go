package core

import (
	"math"
	"testing"
	"time"

	"tagbreathe/internal/sim"
)

// TestStreamingRingFollowsFinality runs the streaming chain on the
// paper's workload (the 26-user 5–30 bpm sweep, 3 tags at 8 Hz on the
// default 10-channel hop plan) on the Monitor's schedule: first tick
// one window in, then every second, with one 8 s gap between ticks as
// the degradation ladder makes when it stretches a worker's cadence.
//
// At every tick the bins the chain has yet to consume (PendingBins)
// must stay within maxPendingBins: a hopped channel's next read
// spreads its displacement back to the channel's previous read, about
// 2 s earlier, so bins reach finality ≈ 2.1 s behind the tick. The
// fusion ring holds only those bins and the ones read since, so at
// every tick that ends a 1 s interval each ring must stay under four
// times that span: a ring grows to the first power of two that holds
// its span, and an eviction shrinks it to twice the span held since
// the previous one when that span is a quarter of it or less. Over the
// 8 s gap the largest ring must grow past that bound; the first 1 s
// tick after it shrinks it back.
func TestStreamingRingFollowsFinality(t *testing.T) {
	const (
		window         = 25.0
		streamSec      = 60
		maxPendingBins = 40 // 2.5 s of 62.5 ms bins
		gapFrom        = 40 // no ticks in (gapFrom, gapFrom+8)
		gapSec         = 8
	)
	syn, err := sim.NewSynth(sim.SynthConfig{Users: 26, BaseRateBPM: 5, RateSpreadBPM: 26, JitterFrac: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Filter: FilterFIRStreaming}
	tickBins := int(1 / binInterval)
	// Live span at a tick: the bins awaiting finality, the guard bin
	// EvictBefore keeps, and one tick's worth of new bins.
	bound := 4 * (maxPendingBins + 1 + tickBins)

	engines := map[uint64]*Engine{}
	var order []*Engine
	worstPending, worstRing, gapRing := 0, 0, 0
	prev := 0.0
	tick := func(asOf float64) {
		gapEnd := asOf == gapFrom+gapSec
		oneSecond := asOf-prev == 1
		prev = asOf
		for _, e := range order {
			if _, ok := e.TickUpdate(asOf); !ok && asOf > 2*window {
				t.Errorf("user %d: no update at %.0f s", e.userID, asOf)
			}
			if p := e.Lag(asOf).PendingBins; p > worstPending {
				worstPending = p
			}
			if gapEnd {
				for _, a := range e.ants {
					gapRing = max(gapRing, len(a.fuser.ring))
				}
			}
			e.ResetTickStats()
			e.EvictBefore(asOf - window)
			if !oneSecond {
				continue
			}
			for _, a := range e.ants {
				worstRing = max(worstRing, len(a.fuser.ring))
			}
		}
	}
	next := window
	for _, r := range syn.Generate(streamSec * time.Second) {
		for ts := r.Timestamp.Seconds(); ts >= next; {
			tick(next)
			if next++; next > gapFrom && next < gapFrom+gapSec {
				next = gapFrom + gapSec
			}
		}
		uid := r.EPC.UserID()
		e, ok := engines[uid]
		if !ok {
			e = NewEngine(cfg, EngineOptions{Window: window, TickStride: 1, UserID: uid})
			engines[uid] = e
			order = append(order, e)
		}
		e.Feed(r)
	}
	if len(order) != 26 {
		t.Fatalf("%d users, want 26", len(order))
	}
	t.Logf("worst pending %d bins, largest ring after a 1 s tick %d bins (bound %d), largest over the %d s gap %d bins",
		worstPending, worstRing, bound, gapSec, gapRing)
	if worstPending > maxPendingBins {
		t.Errorf("a chain trails its tick by %d bins, want at most %d", worstPending, maxPendingBins)
	}
	if worstRing > bound {
		t.Errorf("a fusion ring holds %d bins after a 1 s tick, want at most %d", worstRing, bound)
	}
	if gapRing <= bound {
		t.Errorf("over the %d s gap the largest ring held %d bins, want it to grow past %d", gapSec, gapRing, bound)
	}
}

// TestAdvanceCarriesGuardDeposits reads a streaming chain's bins, then
// deposits a sample that reaches back into the last bin read, the
// guard EvictBefore keeps. The chain must carry what the sample added
// to the bins after the guard, and nothing more: once the sample ends
// the chain reads no displacement, so the Eq. 7 sum stops moving. A
// running sum that missed the guard's share would read it back as a
// step in every later bin, and the sum would drift without end.
func TestAdvanceCarriesGuardDeposits(t *testing.T) {
	e := NewEngine(Config{Filter: FilterFIRStreaming}, EngineOptions{Window: 25, OriginSet: true})
	a := e.addVantage(vantage{})
	f := a.fuser
	f.Add(DisplacementSample{T: 1, TPrev: 0, D: 0.01})
	f.SettleBefore(math.Inf(1))
	e.advance(a, 10)
	// Evict as EvictBefore does, keeping bin 9 as the guard, then add
	// a sample whose accrual starts inside bin 9.
	f.evictTo(a.next - 1)
	f.Add(DisplacementSample{T: 1.5, TPrev: 0.6, D: 0.02})
	f.SettleBefore(math.Inf(1))
	e.advance(a, 40) // past the sample's end, bin 24
	acc := a.acc
	e.advance(a, 200)
	if d := a.acc - acc; math.Abs(d) > 1e-12 {
		t.Fatalf("the Eq. 7 sum moved %.3g over 160 bins no sample reached", d)
	}
}
