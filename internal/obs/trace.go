package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes a trace's timestamp ledger: the fixed pipeline
// positions a sampled report is stamped at on its way from the LLRP
// socket to the consumer-visible rate update. The stages are ordered
// as the data flows; a report that enters mid-pipeline (an in-process
// capacity run has no LLRP read, say) simply leaves earlier stamps
// zero and the transition histograms skip them.
type Stage int

const (
	// StageRead: the report was decoded from an LLRP frame on the host.
	StageRead Stage = iota
	// StageForward: the session put it on the stable Reports channel
	// (or handed it to the fleet merge), on the decode goroutine that
	// stamped StageRead.
	StageForward
	// StageIngest: the consumer handed it to Monitor.Ingest.
	StageIngest
	// StageDemux: the monitor's router put it on a shard worker's
	// queue, on the goroutine that called Ingest.
	StageDemux
	// StageWorker: the owning shard worker dequeued it.
	StageWorker
	// StageFeed: the user's engine consumed it (differencing + Eq. 6
	// fusion done).
	StageFeed
	// StageEmit: the covering analysis tick's updates were handed to
	// the consumer — the end of the trace.
	StageEmit

	// NumStages sizes the ledger.
	NumStages
)

var stageNames = [NumStages]string{
	"read", "forward", "ingest", "demux", "worker", "feed", "emit",
}

// String returns the stage's metric-label name.
func (s Stage) String() string {
	if s >= 0 && s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// TraceBuckets grade the stage-transition and end-to-end histograms:
// sub-µs hops through the multi-second tick wait (the dominant e2e
// term is UpdateEvery/2, seconds at display cadence).
var TraceBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3,
	1, 4, 16,
}

// TracerConfig tunes a pipeline tracer.
type TracerConfig struct {
	// SampleEvery traces one of every N reports seen at a trace origin
	// (Begin call). 0 disables sampling entirely: Begin always returns
	// the zero trace ID and no clock is ever read — the compiled-in but
	// dormant mode the tick benchmarks pin at zero overhead.
	//
	// Even strides are rounded up to odd. A pipeline with two Begin
	// sites (LLRP read upstream, monitor ingest as the fallback origin)
	// advances the shared lottery counter twice per untraced report, so
	// an even stride would only ever hit one parity — permanently
	// starving one origin and erasing the read→ingest hop from every
	// trace.
	SampleEvery int
	// RingSize is the exemplar ring capacity (rounded up to a power of
	// two; default 64). The ring doubles as the live ledger: a slot is
	// recycled once NumSlots newer traces begin, so it must comfortably
	// exceed the number of traces in flight at the chosen sample rate.
	RingSize int
}

// traceSlot is one ring entry: the ledger of a single sampled report.
// The per-slot mutex is uncontended in practice — only sampled reports
// (1/SampleEvery of the stream) ever touch a slot, and a slot is owned
// by one report at a time.
type traceSlot struct {
	mu     sync.Mutex
	id     uint64
	user   uint64
	reader string
	done   bool
	stamps [NumStages]int64 // UnixNano per stage; 0 = not stamped
}

// Tracer samples end-to-end report traces through the pipeline. All
// methods are safe for concurrent use and safe on a nil receiver
// (no-op), so instrumented code threads one pointer unconditionally.
// Reports carry only a uint64 trace ID; the ledger lives here, so the
// per-report cost on unsampled reports is two predictable branches.
type Tracer struct {
	every uint64
	mask  uint64
	slots []traceSlot

	seen   atomic.Uint64
	nextID atomic.Uint64

	sampled   *Counter
	completed *Counter
	dropped   *Counter
	stage     [NumStages]*Histogram
	e2e       *Histogram
}

// NewTracer wires a tracer's instruments into r (nil r: live but
// unexposed) and builds its exemplar ring. The metric families appear
// on /metrics immediately so dashboards see them before traffic flows.
func NewTracer(r *Registry, cfg TracerConfig) *Tracer {
	size := cfg.RingSize
	if size <= 0 {
		size = 64
	}
	// Round up to a power of two so slot lookup is a mask, not a mod.
	n := 1
	for n < size {
		n <<= 1
	}
	t := &Tracer{
		mask:  uint64(n - 1),
		slots: make([]traceSlot, n),
		sampled: r.Counter("tagbreathe_pipeline_traces_sampled_total",
			"Reports selected for end-to-end tracing."),
		completed: r.Counter("tagbreathe_pipeline_traces_completed_total",
			"Sampled traces that reached the emit stage."),
		dropped: r.Counter("tagbreathe_pipeline_traces_dropped_total",
			"Sampled traces lost before emit (report shed, ring eviction, or open-list overflow)."),
		e2e: r.Histogram("tagbreathe_pipeline_report_to_update_seconds",
			"End-to-end latency from a sampled report's first stamp to its covering rate update.",
			TraceBuckets),
	}
	if cfg.SampleEvery > 0 {
		every := cfg.SampleEvery
		if every%2 == 0 {
			every++ // see TracerConfig.SampleEvery: even strides starve one origin
		}
		t.every = uint64(every)
	}
	stages := r.HistogramVec("tagbreathe_pipeline_stage_seconds",
		"Latency of one pipeline stage transition: time from the previous stamped stage to the labeled one.",
		TraceBuckets, "stage")
	for s := Stage(0); s < NumStages; s++ {
		t.stage[s] = stages.With(s.String())
	}
	return t
}

// Begin starts a trace at the given origin stage if this report wins
// the sampling lottery, returning its trace ID (0 = untraced, the
// overwhelmingly common case). With sampling off it returns 0 without
// reading the clock.
//
//tagbreathe:allow hotpath clock read and slot lock run only for 1-in-every lottery winners; the untraced path is two branches
func (t *Tracer) Begin(stage Stage) uint64 {
	if t == nil || t.every == 0 {
		return 0
	}
	if t.seen.Add(1)%t.every != 0 {
		return 0
	}
	id := t.nextID.Add(1)
	now := time.Now().UnixNano()
	s := &t.slots[id&t.mask]
	s.mu.Lock()
	if s.id != 0 && !s.done {
		// Recycling a slot whose trace never finished: the report is
		// still in flight somewhere (or was silently lost); count it so
		// sampled = completed + dropped stays auditable.
		t.dropped.Inc()
	}
	s.id = id
	s.user = 0
	s.reader = ""
	s.done = false
	for i := range s.stamps {
		s.stamps[i] = 0
	}
	s.stamps[stage] = now
	s.mu.Unlock()
	t.sampled.Inc()
	return id
}

// Stamp records the trace's arrival at a stage. id 0 (untraced) is an
// immediate no-op — the hot-path common case costs two branches.
//
//tagbreathe:allow hotpath clock read and slot lock run only on sampled traces; id 0 returns before either
func (t *Tracer) Stamp(id uint64, stage Stage) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	s := &t.slots[id&t.mask]
	s.mu.Lock()
	if s.id == id && !s.done {
		s.stamps[stage] = now
	}
	s.mu.Unlock()
}

// SetUser attaches the routed user ID to a trace for the exemplar
// view.
//
//tagbreathe:allow hotpath slot lock runs only on sampled traces; id 0 returns first
func (t *Tracer) SetUser(id, user uint64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.slots[id&t.mask]
	s.mu.Lock()
	if s.id == id && !s.done {
		s.user = user
	}
	s.mu.Unlock()
}

// SetReader attaches the originating reader's name to a trace for the
// exemplar view — the fleet provenance a /debug/traces row shows.
//
//tagbreathe:allow hotpath slot lock runs only on sampled traces; id 0 returns first
func (t *Tracer) SetReader(id uint64, reader string) {
	if t == nil || id == 0 || reader == "" {
		return
	}
	s := &t.slots[id&t.mask]
	s.mu.Lock()
	if s.id == id && !s.done {
		s.reader = reader
	}
	s.mu.Unlock()
}

// Abort finalizes a trace that will never reach emit (its report was
// shed, or a worker's open-trace list overflowed). The slot is freed
// and the loss is counted.
//
//tagbreathe:allow hotpath slot lock runs only on sampled traces; id 0 returns first
func (t *Tracer) Abort(id uint64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.slots[id&t.mask]
	s.mu.Lock()
	if s.id == id && !s.done {
		s.id = 0
		t.dropped.Inc()
	}
	s.mu.Unlock()
}

// Complete stamps the emit stage and finalizes the trace: each stamped
// stage-to-stage transition feeds the per-stage histogram, the first
// stamp to emit feeds the end-to-end histogram, and the finished
// ledger stays in the ring for /debug/traces until recycled.
func (t *Tracer) Complete(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	s := &t.slots[id&t.mask]
	s.mu.Lock()
	if s.id != id || s.done {
		s.mu.Unlock()
		return
	}
	s.stamps[StageEmit] = now
	s.done = true
	stamps := s.stamps
	s.mu.Unlock()

	var first, prev int64
	for st := Stage(0); st < NumStages; st++ {
		ts := stamps[st]
		if ts == 0 {
			continue
		}
		if first == 0 {
			first = ts
		} else {
			d := float64(ts-prev) / 1e9
			if d < 0 {
				d = 0 // clocks are monotonic-backed, but never observe negatives
			}
			t.stage[st].Observe(d)
		}
		prev = ts
	}
	if first != 0 {
		t.e2e.Observe(float64(now-first) / 1e9)
	}
	t.completed.Inc()
}

// EndToEnd exposes the report→update latency histogram so harnesses
// and tests can read quantiles without a registry scrape.
func (t *Tracer) EndToEnd() *Histogram {
	if t == nil {
		return nil
	}
	return t.e2e
}

// StageHistogram exposes one stage-transition histogram.
func (t *Tracer) StageHistogram(s Stage) *Histogram {
	if t == nil || s < 0 || s >= NumStages {
		return nil
	}
	return t.stage[s]
}

// Completed returns how many sampled traces reached emit.
func (t *Tracer) Completed() uint64 {
	if t == nil {
		return 0
	}
	return t.completed.Value()
}

// StageStamp is one ledger entry of an exemplar trace.
type StageStamp struct {
	Stage    string `json:"stage"`
	UnixNano int64  `json:"unix_nano"`
	// FromPrevSeconds is the transition time from the previous stamped
	// stage (0 for the first).
	FromPrevSeconds float64 `json:"from_prev_seconds"`
}

// TraceExemplar is one completed end-to-end trace, the /debug/traces
// row.
type TraceExemplar struct {
	ID         uint64       `json:"id"`
	User       string       `json:"user,omitempty"`
	Reader     string       `json:"reader,omitempty"`
	E2ESeconds float64      `json:"e2e_seconds"`
	Stages     []StageStamp `json:"stages"`
}

// Exemplars snapshots the completed traces currently in the ring,
// oldest first. Safe to call concurrently with tracing; a nil tracer
// returns nil.
func (t *Tracer) Exemplars() []TraceExemplar {
	if t == nil {
		return nil
	}
	out := make([]TraceExemplar, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.id == 0 || !s.done {
			s.mu.Unlock()
			continue
		}
		ex := TraceExemplar{ID: s.id, Reader: s.reader}
		if s.user != 0 {
			ex.User = fmt.Sprintf("%x", s.user)
		}
		var first, prev int64
		for st := Stage(0); st < NumStages; st++ {
			ts := s.stamps[st]
			if ts == 0 {
				continue
			}
			entry := StageStamp{Stage: st.String(), UnixNano: ts}
			if first == 0 {
				first = ts
			} else {
				entry.FromPrevSeconds = float64(ts-prev) / 1e9
			}
			prev = ts
			ex.Stages = append(ex.Stages, entry)
		}
		if first != 0 {
			ex.E2ESeconds = float64(prev-first) / 1e9
		}
		s.mu.Unlock()
		out = append(out, ex)
	}
	// Ring order is id&mask; present oldest-first by ID instead.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
