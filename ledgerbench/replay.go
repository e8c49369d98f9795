package main

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/llrp"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
)

// Layer replay: one goroutine times each layer's public calls over the
// workload's own corpus, with nothing else running. It is the
// single-threaded baseline the end-to-end CPU per report is reconciled
// against.

const (
	// replaySec is the stream span the replay covers. Ticks count from
	// steadySec on: past the window fill, the streaming chain's ~26 s
	// warm-up and one more window for its crossing buffers to reach
	// their working size, as BenchmarkMonitorTickAllocs warms up, so
	// every measured tick is a steady-state one.
	replaySec = 75
	steadySec = 55
	// bandpassBudget is how long the sigproc probe calls the filter.
	bandpassBudget = 200 * time.Millisecond
)

// layerCosts is what the replay measured.
type layerCosts struct {
	decodeNs, decodeAllocs float64 // per report
	feedNs                 float64 // per report
	tickUs, tickAllocs     float64 // per user-tick
	bandpassUs             float64 // per call
	userTicks              int
}

func replayLayers(w workload, seed int64) (layerCosts, error) {
	var lc layerCosts

	// The replay corpus is the workload's stream cut to its first
	// replayUsers users: per-report and per-user-tick costs do not
	// depend on how many users share the stream.
	w.users = w.replayUsers

	// LLRP decode: ReadMessage + DecodeTagReports over every frame, as
	// the client's read loop runs them.
	var streams [][]reader.TagReport
	var decNs time.Duration
	var decAllocs uint64
	reports := 0
	for ri := range w.readers {
		c, err := buildCorpus(w.synthConfig(ri, seed), replaySec)
		if err != nil {
			return lc, err
		}
		var br bytes.Reader
		runtime.GC()
		m0 := mallocs()
		t0 := time.Now()
		for i := range c.frameEnd {
			br.Reset(c.frame(i))
			m, err := llrp.ReadMessage(&br)
			if err != nil {
				return lc, err
			}
			if _, err := llrp.DecodeTagReports(m.Payload); err != nil {
				return lc, err
			}
		}
		decNs += time.Since(t0)
		decAllocs += mallocs() - m0
		reports += c.reports

		// Untimed: keep the reports, stamped with the reader's name as
		// the session stamps them.
		var rs []reader.TagReport
		for i := range c.frameEnd {
			br.Reset(c.frame(i))
			m, _ := llrp.ReadMessage(&br)
			batch, _ := llrp.DecodeTagReports(m.Payload)
			for _, r := range batch {
				r.ReaderID = w.readers[ri].name
				rs = append(rs, r)
			}
		}
		streams = append(streams, rs)
	}
	lc.decodeNs = float64(decNs.Nanoseconds()) / float64(reports)
	lc.decodeAllocs = float64(decAllocs) / float64(reports)

	// Engine: Feed every report, and on each tick boundary the calls
	// workerLoop makes per engine, in its order.
	stream := mergeByTime(streams)
	type seg struct {
		feeds []*core.Engine
		rs    []reader.TagReport
		asOf  time.Duration
	}
	engines := map[uint64]*core.Engine{}
	var order []*core.Engine
	mm := core.NewMonitorMetrics(nil)
	cfg := core.Config{Filter: w.filter}
	var segs []seg
	var cur seg
	next := stream[0].Timestamp + window
	for _, r := range stream {
		uid := r.EPC.UserID()
		eng, ok := engines[uid]
		if !ok {
			eng = core.NewEngine(cfg, core.EngineOptions{
				Window: window.Seconds(), TickStride: updateEvery.Seconds(), UserID: uid, Metrics: mm,
			})
			engines[uid] = eng
			order = append(order, eng)
		}
		cur.feeds = append(cur.feeds, eng)
		cur.rs = append(cur.rs, r)
		if r.Timestamp >= next {
			cur.asOf = r.Timestamp
			segs = append(segs, cur)
			cur = seg{}
			next += updateEvery
			if next <= r.Timestamp {
				next = r.Timestamp + updateEvery
			}
		}
	}
	steady := stream[0].Timestamp + steadySec*time.Second
	var feedNs, tickNs time.Duration
	var tickAllocs uint64
	fed := 0
	winSec := window.Seconds()
	for _, s := range segs {
		t0 := time.Now()
		for i, eng := range s.feeds {
			eng.Feed(s.rs[i])
		}
		d := time.Since(t0)
		measure := s.asOf >= steady
		if measure {
			feedNs += d
			fed += len(s.rs)
		}
		asOf := s.asOf.Seconds()
		m0 := mallocs()
		t0 = time.Now()
		for _, eng := range order {
			eng.TickUpdate(asOf)
			eng.ResetTickStats()
			eng.EvictBefore(asOf - winSec)
			eng.Lag(asOf)
		}
		d = time.Since(t0)
		if measure {
			tickNs += d
			tickAllocs += mallocs() - m0
			lc.userTicks += len(order)
		}
	}
	lc.feedNs = float64(feedNs.Nanoseconds()) / float64(fed)
	lc.tickUs = float64(tickNs.Nanoseconds()) / 1e3 / float64(lc.userTicks)
	lc.tickAllocs = float64(tickAllocs) / float64(lc.userTicks)

	bp, err := bandpassUs(w.filter)
	if err != nil {
		return lc, err
	}
	lc.bandpassUs = bp
	return lc, nil
}

// bandpassUs times the band-pass one user-tick pays in the workload's
// filter mode, fed window-shaped input from outside: in FFT mode one
// sigproc.BandPassFFT over a window of bins, in streaming mode one
// tick's worth of sigproc.StreamBandPass.Push calls. The bin width and
// band are core.Config's defaults (62.5 ms bins, 0.05–0.67 Hz, §IV-B).
func bandpassUs(mode core.FilterMode) (float64, error) {
	const binSec, lo, hi = 0.0625, 0.05, 0.67
	rate := 1 / binSec
	n := int(window.Seconds() / binSec)
	x := make([]float64, n)
	for i := range x {
		t := float64(i) * binSec
		x[i] = 0.005*math.Sin(2*math.Pi*0.25*t) + 0.001*t
	}
	call := func() error {
		_, err := sigproc.BandPassFFT(x, rate, lo, hi)
		return err
	}
	if mode == core.FilterFIRStreaming {
		f, err := sigproc.NewStreamBandPass(rate, lo, hi)
		if err != nil {
			return 0, err
		}
		perTick := int(updateEvery.Seconds() / binSec)
		k := 0
		call = func() error {
			for i := 0; i < perTick; i++ {
				f.Push(x[k%n])
				k++
			}
			return nil
		}
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < bandpassBudget {
		if err := call(); err != nil {
			return 0, err
		}
		calls++
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(calls), nil
}

// mergeByTime merges per-reader streams into one timestamp-ordered
// stream, earlier readers first on ties.
func mergeByTime(streams [][]reader.TagReport) []reader.TagReport {
	var out []reader.TagReport
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
