package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tagbreathe/internal/reader"
)

// The batch pipeline's concurrency model: reports are demultiplexed
// into per-user shards (EPC Gen2 singulates tags one at a time, so
// per-user streams never interfere — §III), and each shard runs the
// whole per-user pipeline — antenna selection, Eq. 3 differencing,
// Eq. 6/7 fusion and accumulation, §IV-B extraction, Eq. 5 rates — with
// no shared mutable state. A shard's work reads only its own report
// slice and writes only its own result slot, so the worker pool needs
// no locks and the sharded path is bit-identical to running the shards
// one after another on a single goroutine.

// userShard is one user's slice of the report window, in stream order.
type userShard struct {
	uid     uint64
	reports []reader.TagReport
}

// demuxByUser partitions reports into per-user shards, preserving
// stream order within each shard and first-seen order across shards
// (which makes work distribution deterministic).
func demuxByUser(reports []reader.TagReport, cfg *Config) []userShard {
	idx := make(map[uint64]int)
	var shards []userShard
	for _, r := range reports {
		uid := epcUserID(r.EPC)
		if !cfg.allowsUser(uid) {
			continue
		}
		i, ok := idx[uid]
		if !ok {
			i = len(shards)
			idx[uid] = i
			shards = append(shards, userShard{uid: uid})
		}
		shards[i].reports = append(shards[i].reports, r)
	}
	return shards
}

// workerCount resolves Config.Workers against the shard count: 0 means
// GOMAXPROCS, and there is never a point in more workers than shards.
func (c *Config) workerCount(shards int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// estimateShard runs the full per-user pipeline on one shard over the
// window [t0, t1]: feed every report into a stage engine, flush once.
// It returns nil when the user is not monitorable in this window (too
// little data, or no extractable breathing signal). The engine is the
// same one the streaming Monitor ticks over — batch is just its
// single-flush mode.
func estimateShard(sh userShard, t0, t1 float64, cfg Config) *UserEstimate {
	eng := NewEngine(cfg, EngineOptions{
		Origin:    t0,
		OriginSet: true,
		Window:    t1 - t0,
		UserID:    sh.uid,
	})
	for i := range sh.reports {
		eng.feed(&sh.reports[i])
	}
	return eng.FlushEstimate(t0, t1)
}

// runShards executes estimateShard over every shard, sequentially when
// workers is 1 and on a bounded worker pool otherwise. Each worker
// writes only its own result slots, so results need no synchronization
// beyond the pool's WaitGroup. With cfg.Metrics wired it also times
// each shard and computes the pool's busy fraction; results are
// identical either way.
func runShards(shards []userShard, t0, t1 float64, cfg Config) []*UserEstimate {
	results := make([]*UserEstimate, len(shards))
	workers := cfg.workerCount(len(shards))
	mt := cfg.Metrics
	var start time.Time
	var busyNanos atomic.Int64
	if mt != nil {
		mt.Shards.Add(uint64(len(shards)))
		mt.Workers.Set(float64(workers))
		start = time.Now()
	}
	run := func(i int) {
		if mt == nil {
			results[i] = estimateShard(shards[i], t0, t1, cfg)
			return
		}
		s0 := time.Now()
		results[i] = estimateShard(shards[i], t0, t1, cfg)
		d := time.Since(s0)
		busyNanos.Add(int64(d))
		mt.ShardSeconds.Observe(d.Seconds())
		if results[i] == nil {
			mt.NoSignal.Inc()
		}
	}
	if workers <= 1 {
		for i := range shards {
			run(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					run(i)
				}
			}()
		}
		for i := range shards {
			//tagbreathe:allow chandir the unbuffered handoff is the backpressure: producers block until a worker frees, bounding in-flight shards to the pool
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	if mt != nil {
		if wall := time.Since(start).Seconds(); wall > 0 && workers > 0 {
			util := (time.Duration(busyNanos.Load()).Seconds()) / (wall * float64(workers))
			mt.WorkerUtilization.Set(util)
		}
	}
	return results
}
