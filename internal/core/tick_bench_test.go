package core_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/units"
)

// synthGen emits an endless, fully deterministic report stream for the
// tick benchmarks: one user, three tags, two antennas, a 16-channel
// hop plan, 64 reads/s, and a 15 bpm breathing motion on the tag
// distance. It avoids the simulator so benchmark iterations cost only
// the pipeline, not the RF model, and so b.N can run arbitrarily long.
type synthGen struct {
	k   int
	epc [3]reader.TagReport // EPC templates, one per tag
}

func newSynthGen() *synthGen {
	g := &synthGen{}
	for tag := range g.epc {
		g.epc[tag].EPC = epc.NewUserTagEPC(0xBEEF, uint32(tag+1))
	}
	return g
}

const synthReadHz = 64.0

func (g *synthGen) next() reader.TagReport {
	k := g.k
	g.k++
	t := float64(k) / synthReadHz
	tag := k % 3
	channel := (k / 25) % 16 // ~0.4 s dwell, full revisit every 6.25 s
	antenna := 1 + (k/32)%2  // 0.5 s antenna dwell (§IV-D.3 round-robin)
	freq := units.Hertz(902.75e6 + 0.5e6*float64(channel))
	lambda := float64(freq.Wavelength())
	// 5 mm chest excursion at 0.25 Hz (15 bpm), plus a per-channel
	// circuit constant so naive cross-channel differencing would break.
	d := 2.0 + 0.005*math.Sin(2*math.Pi*0.25*t)
	theta := math.Mod(4*math.Pi*d/lambda+0.3*float64(channel), 2*math.Pi)
	r := g.epc[tag]
	r.AntennaPort = antenna
	r.ChannelIndex = channel
	r.Frequency = freq
	r.Timestamp = time.Duration(t * float64(time.Second))
	r.Phase = units.Radians(theta)
	r.RSSI = units.DBm(-58 - 6*float64(antenna-1))
	return r
}

// benchEngineTick measures one steady-state monitor tick: feed one
// stride (1 s) of reports, tick, reset stats, evict the window. The
// engine is warmed past the window (and the streaming chain's warmup)
// before the timer starts, so every measured iteration is the
// steady-state cost a live shard pays each UpdateEvery.
func benchEngineTick(b *testing.B, mode core.FilterMode, window time.Duration) {
	b.Helper()
	gen := newSynthGen()
	eng := core.NewEngine(core.Config{Filter: mode}, core.EngineOptions{
		Window:     window.Seconds(),
		TickStride: 1,
	})
	winSec := window.Seconds()
	tick := func(asOf float64) {
		eng.TickUpdate(asOf)
		eng.ResetTickStats()
		eng.EvictBefore(asOf - winSec)
		// Lag accounting rides every monitor tick (workerLoop); include
		// it so the 0 allocs/tick pin covers the observability layer.
		eng.Lag(asOf)
	}
	warm := winSec + 30 // covers the window fill and the streaming chain's 18.6 s warm-up
	next := 1.0
	for {
		r := gen.next()
		ts := r.Timestamp.Seconds()
		eng.Feed(r)
		if ts >= next {
			tick(ts)
			next = ts + 1
		}
		if ts > warm {
			break
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := next
		for {
			r := gen.next()
			eng.Feed(r)
			if ts := r.Timestamp.Seconds(); ts >= target {
				tick(ts)
				next = ts + 1
				break
			}
		}
	}
}

// BenchmarkMonitorTickWindow is the tick-cost-versus-window curve: the
// recompute modes re-filter the whole window each tick (cost grows
// with the window), while streaming mode advances only the newly
// finalized bins (cost ~flat in the window). scripts/tick_bench_smoke.sh
// guards the streaming curve in CI.
func BenchmarkMonitorTickWindow(b *testing.B) {
	modes := []struct {
		name string
		mode core.FilterMode
	}{
		{"fft", core.FilterFFT},
		{"stream", core.FilterFIRStreaming},
	}
	windows := []time.Duration{25 * time.Second, 60 * time.Second, 120 * time.Second}
	for _, m := range modes {
		for _, w := range windows {
			b.Run(fmt.Sprintf("mode=%s/window=%s", m.name, w), func(b *testing.B) {
				benchEngineTick(b, m.mode, w)
			})
		}
	}
}

// BenchmarkMonitorTickAllocs isolates the steady-state allocation
// behavior of a streaming tick; the ring buffers and scratch reuse are
// supposed to make it allocation-free once warm.
func BenchmarkMonitorTickAllocs(b *testing.B) {
	benchEngineTick(b, core.FilterFIRStreaming, 25*time.Second)
}
