package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"tagbreathe/internal/reader"
)

// accountingStream is six users' interleaved 16 Hz report streams.
func accountingStream(seconds float64) []reader.TagReport {
	var rs []reader.TagReport
	for uid := uint64(1); uid <= 6; uid++ {
		rs = append(rs, handoffStream(uid, "", 8+2*float64(uid), seconds)...)
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Timestamp < rs[j].Timestamp })
	return rs
}

// awaitAccounted waits until every ingested report is processed or
// dropped — the workers have gone idle — and fails if processed +
// dropped ever exceeds ingested or never reaches it.
func awaitAccounted(t *testing.T, m *Monitor, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		in := m.metrics.Ingested.Value()
		st := m.Stats()
		if st.Processed+st.Dropped > in {
			t.Fatalf("%s: processed %d + dropped %d exceeds ingested %d", what, st.Processed, st.Dropped, in)
		}
		if st.Processed+st.Dropped == in {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: processed %d + dropped %d never reached ingested %d", what, st.Processed, st.Dropped, in)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestProcessedExactAtQuiescence: each worker adds its fed reports to
// Processed once per span, so processed + dropped must equal ingested
// whenever the workers are idle. The stream arrives in bursts of odd
// sizes, so workers go idle partway into the ring and between spans,
// with 1, 2 and 4 workers, lossless and with drop-newest sheds.
func TestProcessedExactAtQuiescence(t *testing.T) {
	stream := accountingStream(30)
	bursts := []int{1, 7, 45, 3, 100, 31, 33, 64, 333}
	for _, workers := range []int{1, 2, 4} {
		for _, policy := range []OverloadPolicy{OverloadBlock, OverloadDropNewest} {
			t.Run(fmt.Sprintf("workers=%d/policy=%d", workers, policy), func(t *testing.T) {
				cfg := MonitorConfig{
					Pipeline:     Config{Filter: FilterFIRStreaming},
					Window:       5 * time.Second,
					UpdateEvery:  time.Second,
					ShardWorkers: workers,
					Overload:     policy,
				}
				if policy == OverloadDropNewest {
					// A small queue behind a slow tick sheds.
					cfg.ShardQueue = 8
					cfg.testTickWork = sleepTick(2 * time.Millisecond)
				}
				m := NewMonitor(cfg)
				_, done := collectUpdates(m)
				for i, b := 0, 0; i < len(stream); b++ {
					end := min(i+bursts[b%len(bursts)], len(stream))
					for ; i < end; i++ {
						m.Ingest(stream[i])
					}
					awaitAccounted(t, m, fmt.Sprintf("after burst %d (%d reports)", b, i))
				}
				m.CloseInput()
				<-done
				m.wg.Wait()
				st := m.Stats()
				if in := m.metrics.Ingested.Value(); in != uint64(len(stream)) || st.Processed+st.Dropped != in {
					t.Fatalf("at close: processed %d + dropped %d, ingested %d of %d", st.Processed, st.Dropped, in, len(stream))
				}
				if policy == OverloadDropNewest && st.Dropped == 0 {
					t.Error("no report was shed; the drop-newest case tests nothing")
				}
				if policy == OverloadBlock && st.Dropped != 0 {
					t.Errorf("lossless policy dropped %d reports", st.Dropped)
				}
			})
		}
	}
}

// TestProcessedFlushedBeforeTick holds the only worker in its first
// tick: Processed must already count every report routed ahead of the
// tick, though the worker has not come back for another span, and none
// routed after it.
func TestProcessedFlushedBeforeTick(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	m := NewMonitor(MonitorConfig{
		Window:       2 * time.Second,
		UpdateEvery:  time.Second,
		ShardWorkers: 1,
		testTickWork: func(time.Duration) {
			if first.CompareAndSwap(false, true) {
				close(held)
				<-release
			}
		},
	})
	_, done := collectUpdates(m)
	stream := handoffStream(1, "", 12, 10)
	// The first tick follows the first report at or past the window.
	next := stream[0].Timestamp + 2*time.Second
	ahead := sort.Search(len(stream), func(i int) bool { return stream[i].Timestamp >= next }) + 1
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for _, r := range stream[:ahead+5] {
			m.Ingest(r)
		}
	}()
	<-held
	if got := m.Stats().Processed; got != uint64(ahead) {
		t.Errorf("held in the tick: processed %d, want the %d reports routed ahead of it", got, ahead)
	}
	close(release)
	<-fed
	awaitAccounted(t, m, "after the hold")
	m.CloseInput()
	<-done
	m.wg.Wait()
}
