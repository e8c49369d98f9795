package core

import (
	"math"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"tagbreathe/internal/reader"
)

// handoffStream is one user's 16 Hz report stream on a named reader,
// breathing at bpm.
func handoffStream(uid uint64, readerID string, bpm, seconds float64) []reader.TagReport {
	dist := func(t float64) float64 { return 2 + 0.005*math.Sin(2*math.Pi*bpm/60*t) }
	rs := syntheticReports(uid, 1, 1, dist, seconds, 16, 8, 0.4)
	for i := range rs {
		rs[i].ReaderID = readerID
	}
	return rs
}

// lockedUnfed is unfed for a goroutine that does not hold the ring's
// lock.
func (q *shardRing) lockedUnfed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.unfed()
}

// TestShardRingOccCountsUnfed puts a tick while the worker is midway
// through its span: the tick's occ, and the occupancy putTick returns,
// must count only the entries not yet fed, as unfed does — not the
// part of the span the worker has already finished.
func TestShardRingOccCountsUnfed(t *testing.T) {
	q := newShardRing(8)
	for i := 0; i < 5; i++ {
		q.put(&reader.TagReport{}, int32(i))
	}
	for i := 0; i < 3; i++ {
		if in, ok := q.next(); !ok || in.slot != int32(i) {
			t.Fatalf("entry %d: got slot %d (ok %v)", i, in.slot, ok)
		}
	}
	// Entries 0 and 1 are fed; 2 is in the worker's hands, 3 and 4
	// are queued.
	tick := &monitorTick{}
	after := q.putTick(tick)
	if want := q.lockedUnfed(); after != want || want != 4 {
		t.Fatalf("putTick returned %d entries not yet fed, unfed counts %d; want 4 both", after, want)
	}
	for i := 3; i < 5; i++ {
		if in, ok := q.next(); !ok || in.slot != int32(i) {
			t.Fatalf("entry %d: got slot %d (ok %v)", i, in.slot, ok)
		}
	}
	in, ok := q.next()
	if !ok || in.tick != tick {
		t.Fatal("the tick did not follow the reports")
	}
	if in.occ != 3 {
		t.Errorf("tick occ = %d, want 3: entries 2-4, not the 2 the worker had fed", in.occ)
	}
}

// TestShardRingHoldsRouterAtShardQueue stalls the only worker in a
// tick and keeps producing: the router must block with exactly
// ShardQueue entries routed and not yet fed — the span the stalled
// worker holds (the tick) counted in the bound.
func TestShardRingHoldsRouterAtShardQueue(t *testing.T) {
	for _, size := range []int{1, 8} {
		m := NewMonitor(MonitorConfig{
			Window:       2 * time.Second,
			UpdateEvery:  time.Second,
			ShardQueue:   size,
			ShardWorkers: 1,
			testTickWork: sleepTick(300 * time.Millisecond),
		})
		go func() {
			for range m.Updates() {
			}
		}()
		stream := handoffStream(1, "", 15, 4)
		var routed atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, r := range stream {
				m.Ingest(r)
				routed.Add(1)
			}
		}()
		// The producer is held once neither it nor the worker has moved
		// for 50 ms — inside the 300 ms stall.
		q := m.rt.workers[0].q
		last, still := int64(-1), 0
		deadline := time.Now().Add(10 * time.Second)
		for still < 10 {
			if time.Now().After(deadline) {
				t.Fatalf("ShardQueue %d: the producer never blocked", size)
			}
			time.Sleep(5 * time.Millisecond)
			if n := routed.Load() + int64(m.metrics.Processed.Value()); n == last {
				still++
			} else {
				last, still = n, 0
			}
		}
		held, queued := routed.Load()-int64(m.metrics.Processed.Value()), q.lockedUnfed()
		if queued != size || held != int64(size-1) {
			t.Errorf("ShardQueue %d: router blocked with %d entries queued, %d reports routed and not fed; want %d entries: the held tick and %d reports",
				size, queued, held, size, size-1)
		}
		<-done
		m.Stop()
	}
}

// TestDropNewestShedFirstReportKeepsSlots sheds a new user's first
// report while the worker is stalled, then lets a later user's first
// report through ahead of the shed user's next one: the worker meets
// slots out of order. Each user is seen by its own reader, so an
// update built from another user's reports would name the wrong one.
func TestDropNewestShedFirstReportKeepsSlots(t *testing.T) {
	const size = 16
	m := NewMonitor(MonitorConfig{
		Window:       10 * time.Second,
		UpdateEvery:  5 * time.Second,
		ShardQueue:   size,
		ShardWorkers: 1,
		Overload:     OverloadDropNewest,
		testTickWork: sleepTick(300 * time.Millisecond),
	})
	var ups []RateUpdate
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for u := range m.Updates() {
			ups = append(ups, u)
		}
	}()
	q := m.rt.workers[0].q
	// paced ingests one report once the queue has room, so nothing is
	// shed that the test does not shed on purpose.
	paced := func(r reader.TagReport) {
		for q.lockedUnfed() >= size {
			time.Sleep(100 * time.Microsecond)
		}
		m.Ingest(r)
	}
	readers := map[uint64]string{1: "a", 2: "b", 3: "c"}
	u1 := handoffStream(1, "a", 12, 40)
	i := 0
	for ; u1[i].Timestamp < 10*time.Second; i++ {
		paced(u1[i])
	}
	paced(u1[i]) // crosses the first tick boundary: the worker stalls
	i++
	// Fill the ring; it stays full for 20 ms only inside the stall.
	for still := 0; still < 20; {
		if q.lockedUnfed() < size {
			m.Ingest(u1[i])
			i++
			still = 0
			continue
		}
		time.Sleep(time.Millisecond)
		still++
	}
	t0 := u1[i-1].Timestamp
	later := func(uid uint64, bpm float64) []reader.TagReport {
		var out []reader.TagReport
		for _, r := range handoffStream(uid, readers[uid], bpm, 40) {
			if r.Timestamp > t0 {
				out = append(out, r)
			}
		}
		return out
	}
	u2, u3 := later(2, 20), later(3, 30)
	dropped := m.Stats().Dropped
	m.Ingest(u2[0])
	if got := m.Stats().Dropped - dropped; got != 1 {
		t.Fatalf("user 2's first report: %d shed, want 1 (the stalled worker's ring was full)", got)
	}
	paced(u3[0])
	if got := m.Stats().Dropped - dropped; got != 1 {
		t.Fatalf("user 3's first report was shed too (%d sheds)", got)
	}
	rest := append(append(append([]reader.TagReport(nil), u1[i:]...), u2[1:]...), u3[1:]...)
	sort.SliceStable(rest, func(a, b int) bool { return rest[a].Timestamp < rest[b].Timestamp })
	for _, r := range rest {
		paced(r)
	}
	m.CloseInput()
	<-drained

	seen := map[uint64]int{}
	for _, u := range ups {
		seen[u.UserID]++
		if u.ReaderID != readers[u.UserID] {
			t.Fatalf("update for user %d at %v selected reader %q; only %q sees that user", u.UserID, u.Time, u.ReaderID, readers[u.UserID])
		}
	}
	for uid := range readers {
		if seen[uid] == 0 {
			t.Errorf("user %d got no update", uid)
		}
	}
	if st := m.Stats(); st.Dropped != 1 || st.Processed+st.Dropped != m.metrics.Ingested.Value() {
		t.Errorf("processed %d + dropped %d, ingested %d; want exactly the one planned shed", st.Processed, st.Dropped, m.metrics.Ingested.Value())
	}
}
