package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"tagbreathe/internal/reader"
)

// TestEngineCrossingBuffersBounded runs one user seen by two readers
// for 10 stream-minutes in streaming mode. Only the stronger reader is
// ever selected, yet every vantage's crossing buffer must stay inside
// the window — the one ending a filter group delay before the tick —
// and steady-state ticks must not allocate: a buffer that only the
// selected vantage prunes grows for as long as the stream runs.
func TestEngineCrossingBuffersBounded(t *testing.T) {
	const (
		streamSec = 600.0
		windowSec = 25.0
		steadySec = 60.0
	)
	dist := func(t float64) float64 { return 2 + 0.005*math.Sin(2*math.Pi*0.25*t) }
	east := syntheticReports(1, 1, 1, dist, streamSec, 64, 16, 0.4)
	west := syntheticReports(1, 1, 1, dist, streamSec, 64, 16, 0.4)
	stream := make([]reader.TagReport, 0, len(east)+len(west))
	for i := range east {
		e, w := east[i], west[i]
		e.ReaderID, w.ReaderID = "east", "west"
		w.RSSI = -62
		stream = append(stream, e, w)
	}

	eng := NewEngine(Config{Filter: FilterFIRStreaming}, EngineOptions{Window: windowSec, TickStride: 1, UserID: 1})
	delaySec := float64(eng.delay) * binInterval
	var ms runtime.MemStats
	var steadyAllocs uint64
	ticks := 0
	tick := func(asOf time.Duration) {
		now := asOf.Seconds()
		steady := now >= steadySec
		if steady {
			runtime.ReadMemStats(&ms)
		}
		before := ms.Mallocs
		up, ok := eng.TickUpdate(now)
		eng.ResetTickStats()
		eng.EvictBefore(now - windowSec)
		eng.Lag(now)
		if !steady {
			return
		}
		runtime.ReadMemStats(&ms)
		steadyAllocs += ms.Mallocs - before
		ticks++
		if !ok || up.ReaderID != "east" {
			t.Fatalf("tick %.0f s: update %+v ok=%v, want one selected from east", now, up, ok)
		}
		for _, a := range eng.ants {
			v := a.v
			if len(a.crossings) == 0 {
				t.Fatalf("tick %.0f s: vantage %v holds no crossings; the scenario must exercise both buffers", now, v)
			}
			// Crossings carry the filter's output time, one group delay
			// behind the tick, so the window they fill ends there.
			if start := now - windowSec - delaySec; a.crossings[0].T < start {
				t.Fatalf("tick %.0f s: vantage %v keeps a crossing at %.2f s, %.2f s before the delay-aligned window", now, v, a.crossings[0].T, start-a.crossings[0].T)
			}
			if c := cap(a.crossings); c > 64 {
				t.Fatalf("tick %.0f s: vantage %v crossing buffer grew to capacity %d", now, v, c)
			}
		}
	}
	next := time.Duration(windowSec * float64(time.Second))
	for _, r := range stream {
		for r.Timestamp >= next {
			tick(next)
			next += time.Second
		}
		eng.Feed(r)
	}
	if len(eng.ants) != 2 {
		t.Fatalf("engine holds %d vantages, want 2", len(eng.ants))
	}
	if ticks < 500 {
		t.Fatalf("only %d steady ticks ran", ticks)
	}
	if steadyAllocs != 0 {
		t.Fatalf("steady-state ticks allocated %d times over %d ticks, want 0", steadyAllocs, ticks)
	}
}

// TestStreamingRateNeverSpansAGap silences a 15 bpm user's only vantage
// for 20 s. Crossings before the silence and after it are not one
// oscillation: no update may average across the gap (a rate far below
// the truth), and once the chain has refilled the rate is back on it.
func TestStreamingRateNeverSpansAGap(t *testing.T) {
	const truth = 15.0
	dist := func(t float64) float64 { return 2 + 0.005*math.Sin(2*math.Pi*truth/60*t) }
	var stream []reader.TagReport
	for _, r := range syntheticReports(1, 1, 1, dist, 150, 32, 16, 0.4) {
		if s := r.Timestamp.Seconds(); s < 60 || s >= 80 {
			stream = append(stream, r)
		}
	}
	eng := NewEngine(Config{Filter: FilterFIRStreaming}, EngineOptions{Window: 25, TickStride: 1, UserID: 1})
	var last RateUpdate
	next := 25 * time.Second
	for _, r := range stream {
		for r.Timestamp >= next {
			now := next.Seconds()
			if up, ok := eng.TickUpdate(now); ok {
				if up.RateBPM < truth-3 {
					t.Fatalf("tick %.0f s: rate %.2f bpm over %d crossings spans the silence (truth %.0f)", now, up.RateBPM, up.Crossings, truth)
				}
				last = up
			}
			eng.ResetTickStats()
			eng.EvictBefore(now - 25)
			next += time.Second
		}
		eng.Feed(r)
	}
	if math.Abs(last.RateBPM-truth) > 1 {
		t.Fatalf("last update %.2f bpm, want %.0f ± 1", last.RateBPM, truth)
	}
}
