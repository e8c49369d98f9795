package core

import (
	"math"

	"tagbreathe/internal/fmath"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/sigproc"
)

// The incremental stage engine: one implementation of the paper's
// pipeline chain — Eq. 3 differencing → Eq. 6 bin fusion → Eq. 7
// accumulation → band-pass → Eq. 5 crossings → §IV-D.3 antenna
// selection — shared by the batch path (estimateShard: feed every
// report, flush once) and the streaming Monitor (feed reports as they
// arrive, produce an update per tick). The operators are stateful and
// composable:
//
//	Differencer  → per-stream Eq. 3 state, O(1) per report (exists)
//	BinFuser     → the Eq. 6 bin grid as a ring of first differences;
//	               a new sample writes at most four slots, O(1) per add
//	Eq. 7 acc    → a running sum per antenna with window-exit
//	               correction (StreamBandPass.Rebase), O(1) per bin
//	StreamBandPass → causal FIR low-pass + IIR high-pass, O(taps) per bin
//	CrossingTracker → incremental Eq. 5 crossing detection, O(1) per bin
//
// In FilterFIRStreaming mode a Monitor tick therefore costs
// O(new samples + new bins · taps) — independent of the window length.
// The FFT and batch-FIR modes keep the reference semantics: fusion is
// still incremental (no per-tick re-binning of the window's samples),
// but extraction recomputes over the window's bins, which is the
// behavior the golden tests pin and the accuracy studies use.

// FilterMode selects the band-pass implementation the stage engine
// runs between Eq. 7 accumulation and Eq. 5 crossing detection.
type FilterMode int

const (
	// FilterFFT (the zero value) recomputes the whole-window FFT
	// band-pass each tick/flush — the paper's reference extraction
	// (§IV-B).
	FilterFFT FilterMode = iota
	// FilterFIRBatch recomputes the whole-window FIR band-pass
	// (windowed-sinc low-pass + moving-average drift removal).
	FilterFIRBatch
	// FilterFIRStreaming runs the causal streaming chain (FIR low-pass,
	// IIR high-pass): per-tick cost is O(new bins · taps) regardless of
	// window length, at the price of the low-pass's group delay (47
	// bins, ≈2.9 s at the default band) plus the wait for bin finality
	// (≈2.1 s on the 10-channel hop plan) — rate updates describe
	// breaths that happened ≈5 s ago.
	FilterFIRStreaming
)

// BinFuser maintains the Eq. 6 bin grid (anchored at origin, binSec
// wide) incrementally; FuseBins is its batch face.
// The grid is stored as first differences in a growable ring: slot i
// holds bin i's value minus bin i−1's, and a bin's value is the running
// sum of the differences up to it, started from carry, the value of the
// bin just below base. A displacement sample spread over bins
// [first, last] raises first by its first-bin part, the bins between
// by the full-bin part D·binSec/span and last by its last-bin part, so
// it writes at most four slots — first, first+1, last and last+1 —
// whatever its span: O(1) per sample, where a value grid costs one
// write and one division per bin spanned. Reads are a running sum, in
// order (Engine.advance, WindowBins, Flush).
//
// Batch fusion knows the window [t0, t1) up front and excludes samples
// with T ≥ t1; a streaming fuser cannot know t1, so it holds back the
// samples carrying the newest timestamp seen (pending) and deposits
// them only once a strictly newer sample arrives or SettleBefore/Flush
// declares a bound — exactly reproducing the batch exclusion at every
// tick boundary. Fed the same samples in the same order, a flush over
// [t0, t1) equals FuseBins(samples, binSec, t0, t1) bit for bit.
type BinFuser struct {
	binSec float64
	origin float64 // left edge of bin 0

	// ring holds the differences of the live bins [base, hi]; every
	// other slot is zero. Power-of-two sized; slot = index & mask.
	ring []float64
	mask int
	base int // first live bin; the differences below are folded into carry
	hi   int // one past the highest bin a sample reached
	// carry is the value of bin base−1: the running sum of every
	// difference folded out of the ring.
	carry float64
	adds  int

	floor float64 // origin + base·binSec: the deposit renorm bound

	pending      []DisplacementSample // samples at the newest T seen
	pendT        float64
	pendMinTPrev float64
}

// minRingBins is the smallest ring a BinFuser keeps.
const minRingBins = 16

// ringBins is the ring size that holds need bins: the smallest power of
// two at or above need, and at least minRingBins.
func ringBins(need int) int {
	n := minRingBins
	for n < need {
		n <<= 1
	}
	return n
}

// NewBinFuser builds a fuser on the grid {origin + i·binSec}.
// capacityBins sizes the ring initially. The ring follows the live span
// [Base(), Hi()]: it grows when a deposit lands past it, and
// EvictBefore shrinks it once the span it held up to that eviction is a
// quarter of it or less.
func NewBinFuser(binSec, origin float64, capacityBins int) *BinFuser {
	n := ringBins(capacityBins)
	return &BinFuser{
		binSec: binSec,
		origin: origin,
		ring:   make([]float64, n),
		mask:   n - 1,
		floor:  origin,
	}
}

// binIndex maps a time onto the grid: int((t-origin)/binSec).
func (f *BinFuser) binIndex(t float64) int { return int((t - f.origin) / f.binSec) }

// edge is the left edge of bin i.
func (f *BinFuser) edge(i int) float64 { return f.origin + float64(i)*f.binSec }

// Adds returns how many samples have been added (deposited or held).
func (f *BinFuser) Adds() int { return f.adds }

// Base returns the first live bin index (everything below is evicted).
func (f *BinFuser) Base() int { return f.base }

// Hi returns one past the highest touched bin index.
func (f *BinFuser) Hi() int { return f.hi }

// Add feeds one displacement sample. Samples are expected in
// non-decreasing T order (the Differencer emits them so); out-of-order
// samples are deposited immediately rather than held.
//
//tagbreathe:hotpath Eq. 6 fusion runs once per displacement sample
func (f *BinFuser) Add(s DisplacementSample) {
	f.adds++
	if len(f.pending) > 0 {
		if s.T > f.pendT {
			f.settle()
		} else if s.T < f.pendT {
			f.deposit(s)
			return
		}
	}
	if len(f.pending) == 0 || s.TPrev < f.pendMinTPrev {
		f.pendMinTPrev = s.TPrev
	}
	f.pending = append(f.pending, s)
	f.pendT = s.T
}

// settle deposits all held samples, preserving arrival order.
func (f *BinFuser) settle() {
	for i := range f.pending {
		f.deposit(f.pending[i])
	}
	f.pending = f.pending[:0]
}

// SettleBefore deposits the held samples if their timestamp is
// strictly before limit — the incremental equivalent of the batch
// fuser's "skip s.T >= t1" exclusion at a window edge t1 = limit.
func (f *BinFuser) SettleBefore(limit float64) {
	if len(f.pending) > 0 && f.pendT < limit {
		f.settle()
	}
}

// HeldFloor returns the earliest time a held sample's deposit can
// reach back to (its accrual start), or +Inf when nothing is held.
// Bins strictly before this time cannot change when pending settles.
func (f *BinFuser) HeldFloor() float64 {
	if len(f.pending) == 0 {
		return math.Inf(1)
	}
	return f.pendMinTPrev
}

// deposit is the Eq. 6 kernel. It spreads D uniformly over the bins
// the accrual interval [TPrev, T) covers: with dense reads (span ≤ one
// bin) this is the paper's per-bin sum; with sparse reads it linearly
// interpolates the stream's trajectory instead of aliasing a
// multi-second displacement into a single bin. The evicted floor
// stands in for a batch window's start: a sample reaching below it is
// renormalized over its remaining overlap, and one ending below it is
// dropped. A degenerate span puts all of D in the bin of T. A
// non-finite D is dropped too: a report carrying 0 Hz makes its
// wavelength, and so its displacement, infinite, and one such
// difference would poison every later bin's running sum.
func (f *BinFuser) deposit(s DisplacementSample) {
	if s.T < f.floor || !(math.Abs(s.D) <= math.MaxFloat64) {
		return // entirely inside the evicted region, or not finite
	}
	lo, hi := max(s.TPrev, f.floor), s.T
	if hi <= lo {
		f.spike(f.clampLow(f.binIndex(hi)), s.D)
		return
	}
	first := f.clampLow(f.binIndex(lo))
	last := max(f.binIndex(hi), first)
	// Drop an end bin the interval only touches at its edge (rounding
	// of the bin index can put an edge on either side).
	if last > first && f.edge(last) >= hi {
		last--
	}
	if last > first && f.edge(first+1) <= lo {
		first++
	}
	if last == first {
		f.spike(first, s.D)
		return
	}
	f.reserve(last + 1)
	k := s.D / (hi - lo)
	head := k * (f.edge(first+1) - lo) // bin first's part
	tail := k * (hi - f.edge(last))    // bin last's part
	r, m := f.ring, f.mask
	r[first&m] += head
	if last == first+1 {
		r[last&m] += tail - head
	} else {
		full := k * f.binSec // every bin between
		r[(first+1)&m] += full - head
		r[last&m] += tail - full
	}
	r[(last+1)&m] -= tail
	if last >= f.hi {
		f.hi = last + 1
	}
}

// spike adds v to bin i alone.
func (f *BinFuser) spike(i int, v float64) {
	f.reserve(i + 1)
	f.ring[i&f.mask] += v
	f.ring[(i+1)&f.mask] -= v
	if i >= f.hi {
		f.hi = i + 1
	}
}

func (f *BinFuser) clampLow(i int) int {
	if i < f.base {
		return f.base
	}
	return i
}

// reserve grows the ring when slot i lies past the live span's room.
func (f *BinFuser) reserve(i int) {
	if i-f.base >= len(f.ring) {
		f.resize(i - f.base + 1)
	}
}

// resize moves the live differences [base, hi] into a ring of
// ringBins(need) slots. A ring grows at least twofold and shrinks to
// twice the span it held between two evictions (evictTo), so that span
// must double or halve before the next resize.
//
//tagbreathe:allow hotpath amortized: a ring resizes only when the span it holds between evictions doubles or falls to a quarter, never in steady state
func (f *BinFuser) resize(need int) {
	n := ringBins(need)
	next := make([]float64, n)
	for i := f.base; i <= f.hi; i++ {
		next[i&(n-1)] = f.ring[i&f.mask]
	}
	f.ring = next
	f.mask = n - 1
}

// diffAt returns bin i's difference from bin i−1, for i ≥ Base().
func (f *BinFuser) diffAt(i int) float64 {
	if i > f.hi {
		return 0
	}
	return f.ring[i&f.mask]
}

// ValueAt returns bin i's fused value (zero for evicted bins). It sums
// the differences from Base() up, so it costs O(i − Base()); ordered
// readers keep the running sum instead.
func (f *BinFuser) ValueAt(i int) float64 {
	if i < f.base {
		return 0
	}
	v := f.carry
	for j := f.base; j <= min(i, f.hi); j++ {
		v += f.ring[j&f.mask]
	}
	return v
}

// EvictBefore releases all bins strictly before the bin containing
// cutoff, folding their differences into carry and advancing the
// deposit floor. Samples reaching into the evicted region are
// renormalized over their remaining overlap, exactly as batch fusion
// renormalizes at its window start. Bins at or after cutoff's keep
// their values bit for bit: the fold adds the same differences in the
// same order as a read of them does.
func (f *BinFuser) EvictBefore(cutoff float64) { f.evictTo(f.binIndex(cutoff)) }

// evictTo is EvictBefore by bin index: it releases bins below newBase.
// It then shrinks the ring to twice the span held since the last
// eviction, [base, hi) before this one, if that span is at most a
// quarter of the ring. That span, not the smaller one left after
// eviction, is what the ring must hold until the next eviction, so a
// steady cadence of evictions never shrinks a ring it then regrows.
func (f *BinFuser) evictTo(newBase int) {
	if newBase <= f.base {
		return
	}
	held := f.hi - f.base
	for i := f.base; i < min(newBase, f.hi+1); i++ {
		f.carry += f.ring[i&f.mask]
		f.ring[i&f.mask] = 0
	}
	f.base = newBase
	if f.hi < f.base {
		f.hi = f.base
	}
	f.floor = f.edge(f.base)
	if len(f.ring) > minRingBins && 4*held <= len(f.ring) {
		f.resize(2 * held)
	}
}

// WindowBins appends bins [iLo, iHi) to dst and returns it — the
// recompute modes' window view, no per-tick re-fusion required.
func (f *BinFuser) WindowBins(iLo, iHi int, dst []float64) []float64 {
	v := f.carry
	for i := f.base; i < min(iLo, f.hi+1); i++ {
		v += f.ring[i&f.mask]
	}
	for i := iLo; i < iHi; i++ {
		if i < f.base {
			dst = append(dst, 0)
			continue
		}
		v += f.diffAt(i)
		dst = append(dst, v)
	}
	return dst
}

// Flush settles what can settle before t1 and materializes the grid
// over [t0, t1) — the batch path's terminal operation, and all of
// FuseBins.
func (f *BinFuser) Flush(t0, t1 float64) []float64 {
	if f.binSec <= 0 || t1 <= t0 {
		return nil
	}
	n := int((t1 - t0) / f.binSec)
	if n <= 0 {
		return nil
	}
	f.SettleBefore(t1)
	i0 := f.binIndex(t0)
	return f.WindowBins(i0, i0+n, make([]float64, 0, n))
}

// EarliestOpenStream returns the earliest last-read time among streams
// that can still produce a displacement sample at time now (their gap
// to now is within maxPhaseGap), or now if none can. A future sample's
// accrual interval starts at its stream's last read, so every fused
// bin strictly before this bound is final — the streaming filter may
// consume it.
func (df *Differencer) EarliestOpenStream(now float64) float64 {
	floor := now
	for i := range df.streams {
		s := &df.streams[i]
		if !s.valid || now-s.t > maxPhaseGap {
			continue
		}
		if s.t < floor {
			floor = s.t
		}
	}
	return floor
}

// EngineOptions configure one user's stage engine.
type EngineOptions struct {
	// Origin anchors the bin grid when OriginSet; otherwise the first
	// fed report's timestamp anchors it.
	Origin    float64
	OriginSet bool
	// Window is the analysis window in seconds (default 25).
	Window float64
	// TickStride is the expected spacing of TickUpdate calls in
	// seconds; it is the read-rate span for antennas whose reads all
	// share one timestamp (a single read is one read per stride, not
	// one read per second).
	TickStride float64
	// ApneaAlarmSec enables per-tick pause detection (0 disables).
	ApneaAlarmSec float64
	// UserID stamps updates and estimates.
	UserID uint64
	// Metrics receives per-tick instrumentation; nil disables.
	Metrics *MonitorMetrics

	// window, when set, is the buffer recomputeUpdate copies the
	// window's bins into, shared by every engine a shard worker owns
	// (they tick one at a time on its goroutine). Nil gives the engine
	// its own.
	window *[]float64
	// bandPass, when set, is the streaming chain's band-pass as
	// streamBandPass designed it for the same Config, shared by every
	// engine of a Monitor: each vantage takes fresh filter state from it
	// and shares its read-only taps. Nil makes the engine design its
	// own.
	bandPass *sigproc.StreamBandPass
}

// vantage identifies one (reader, antenna) observation point — the
// §IV-D.3 selection unit once overlapping readers are in play. Two
// readers seeing the same user are independent vantages: independent
// oscillators, independent geometry, independent read schedules. The
// zero reader ("") is the unnamed single-reader legacy case, for which
// the vantage degenerates to the antenna port alone.
type vantage struct {
	reader string
	port   int
}

// less orders vantages deterministically for selection tie-breaks:
// lexicographically lowest reader name, then lowest port. With one
// (unnamed) reader this is exactly the legacy lowest-port rule.
func (v vantage) less(o vantage) bool {
	if v.reader != o.reader {
		return v.reader < o.reader
	}
	return v.port < o.port
}

// antennaState is one vantage's slice of the engine: its own Eq. 6
// fuser, per-tick §IV-D.3 selection stats, and — in streaming mode —
// its own Eq. 7 accumulator, FIR chain, and crossing history.
type antennaState struct {
	v vantage
	// ri is v.reader interned in the engine's Differencer.
	ri    int32
	fuser *BinFuser

	// tags caches the Eq. 3 stream slots of the vantage's first
	// cachedTags tags (see Engine.streamOf).
	tags []tagSlot

	// lastRead is the time of the vantage's latest report (+Inf
	// before the first). restart is set when a report follows the
	// previous one by more than maxPhaseGap: every Eq. 3 stream of the
	// vantage had expired, so the displacement trajectory starts over,
	// and a filter output within the filter's settle span of the
	// restart (Engine.hold) mixes both sides of the gap. Crossings
	// before restart are never combined with later ones.
	lastRead, restart float64

	// Per-tick selection stats; ResetTickStats clears them.
	reads       int
	rssiSum     float64
	earliest    float64
	latest      float64
	statStarted bool

	// Cached metric handles: GaugeVec.With allocates its label key, so
	// the tick path resolves each gauge once.
	gRate, gRSSI, gScore *obs.Gauge

	// Streaming chain (FilterFIRStreaming only).
	acc       float64 // Eq. 7 running sum of consumed bins
	bp        *sigproc.StreamBandPass
	tracker   *sigproc.CrossingTracker
	crossings []sigproc.ZeroCrossing
	next      int // next bin index to push through the chain

	// Incremental apnea detector over the filtered outputs; nil unless
	// apnea alarms are enabled.
	pause *PauseTracker
}

// Engine runs the full per-user pipeline incrementally. It is not safe
// for concurrent use; the Monitor gives each user's shard goroutine
// its own engine, and the batch path builds one per shard.
type Engine struct {
	// cfg.Filter is the resolved band-pass (see NewEngine).
	cfg Config

	windowSec  float64
	windowBins int
	strideSec  float64
	apneaSec   float64
	userID     uint64
	// userLbl caches UserLabel(userID) for metric label reuse.
	//
	//tagbreathe:labelvalue assigned only from UserLabel at construction
	userLbl string
	metrics *MonitorMetrics

	df *Differencer
	// ants holds one state per vantage in first-seen order; vantages
	// numbers them.
	ants     []*antennaState
	vantages smallSet[vantage]

	origin    float64
	originSet bool
	started   bool

	// Streaming chain geometry (FilterFIRStreaming only): the output
	// delay, the start-of-stream warmup, and the restart hold-off — how
	// long after a disturbance enters the chain its outputs still carry
	// it: the low-pass's delay plus the high-pass's settle.
	delay, warm, hold int
	// bp is the band-pass design every vantage's chain copies its
	// fresh state from (FilterFIRStreaming only).
	bp *sigproc.StreamBandPass

	// window holds recomputeUpdate's copy of the window's bins (see
	// EngineOptions.window); only that call reads or writes it.
	window *[]float64
}

// NewEngine builds a stage engine for one user. It resolves
// cfg.Filter: FilterFIRStreaming degrades to FilterFIRBatch under
// MotionRejection, which needs the whole window's bin population to
// threshold against, and to FilterFFT when the streaming designer
// rejects the band (a degenerate config).
func NewEngine(cfg Config, opts EngineOptions) *Engine {
	cfg.fillDefaults()
	if opts.Window <= 0 {
		opts.Window = 25
	}
	bp := opts.bandPass
	if bp == nil {
		bp = streamBandPass(cfg)
	}
	var delay, warm, hold int
	if cfg.Filter == FilterFIRStreaming {
		if cfg.MotionRejection {
			cfg.Filter = FilterFIRBatch
		} else if bp == nil {
			cfg.Filter = FilterFFT
		} else {
			delay, warm, hold = bp.Delay(), bp.Warmup(), bp.Delay()+bp.Settle()
		}
	}
	e := &Engine{
		cfg:       cfg,
		windowSec: opts.Window,
		strideSec: opts.TickStride,
		apneaSec:  opts.ApneaAlarmSec,
		userID:    opts.UserID,
		userLbl:   UserLabel(opts.UserID),
		metrics:   opts.Metrics,
		df:        NewDifferencer(),
		origin:    opts.Origin,
		originSet: opts.OriginSet,
		delay:     delay,
		warm:      warm,
		hold:      hold,
		bp:        bp,
		window:    opts.window,
	}
	if e.window == nil {
		e.window = new([]float64)
	}
	e.windowBins = int(e.windowSec / binInterval)
	return e
}

// streamBandPass designs the streaming chain's band-pass for cfg, or
// returns nil when cfg does not run the streaming chain: another
// filter, MotionRejection, or a band the designer rejects.
func streamBandPass(cfg Config) *sigproc.StreamBandPass {
	cfg.fillDefaults()
	if cfg.Filter != FilterFIRStreaming || cfg.MotionRejection {
		return nil
	}
	bp, err := sigproc.NewStreamBandPass(1/binInterval, lowCutHz, cfg.HighCutHz)
	if err != nil {
		return nil
	}
	return bp
}

// The slot cache: how many tags per vantage, and which channel
// indices [0, cachedChannels) per tag, Engine.streamOf reaches by slot.
// The paper's users wear 3 tags and the widest channel plan has 50
// channels; reports outside the cache take the Differencer's index.
const (
	cachedTags     = 8
	cachedChannels = 64
)

// tagSlot is one cached tag of a vantage: its stream slot per channel
// index, -1 before the channel's first report.
type tagSlot struct {
	user  uint64
	tag   uint32
	chans []int32
}

// Feed ingests one report: tick stats, Eq. 3 differencing, and Eq. 6
// fusion. Reports must arrive in timestamp order. O(1) amortized, and
// a steady-state report hashes nothing.
func (e *Engine) Feed(r reader.TagReport) { e.feed(&r) }

// feed is Feed on a report read in place: the shard worker feeds each
// report from its ring slot, and the batch path from its shard slice.
//
//tagbreathe:hotpath runs once per tag read inside every shard
func (e *Engine) feed(r *reader.TagReport) {
	if !e.started {
		e.started = true
		if !e.originSet {
			e.origin = r.Timestamp.Seconds()
		}
	}
	a := e.vantageOf(r)
	a.reads++
	a.rssiSum += float64(r.RSSI)
	ts := r.Timestamp.Seconds()
	if !a.statStarted {
		a.statStarted = true
		a.earliest = ts
	}
	a.latest = ts
	if ts-a.lastRead > maxPhaseGap {
		a.restart = ts + float64(e.hold)*binInterval
	}
	a.lastRead = ts
	if d, ok := e.df.difference(e.streamOf(a, r), r, ts); ok {
		a.fuser.Add(d)
	}
}

// vantageOf returns r's vantage state, creating it on first sight.
func (e *Engine) vantageOf(r *reader.TagReport) *antennaState {
	v := vantage{reader: r.ReaderID, port: r.AntennaPort}
	if i, ok := e.vantages.find(v); ok {
		return e.ants[i]
	}
	return e.addVantage(v)
}

// addVantage builds the state of a vantage seen for the first time.
//
//tagbreathe:allow hotpath construction runs once per vantage at first sight
func (e *Engine) addVantage(v vantage) *antennaState {
	// The recompute modes read the window's bins back each tick; the
	// streaming chain reads each bin once, so its ring starts small.
	ringSize := e.windowBins + 16
	if e.cfg.Filter == FilterFIRStreaming {
		ringSize = 0
	}
	a := &antennaState{
		v:        v,
		ri:       e.df.reader(v.reader),
		fuser:    NewBinFuser(binInterval, e.origin, ringSize),
		lastRead: math.Inf(1),
	}
	if e.cfg.Filter == FilterFIRStreaming {
		a.bp = e.bp.Fresh()
		a.tracker = sigproc.NewCrossingTracker(minCrossingGap)
		// Size the crossing buffer once for a full window at the band
		// edge (two crossings per cycle), so ticks never grow it.
		span := e.windowSec + float64(e.delay)*binInterval
		a.crossings = make([]sigproc.ZeroCrossing, 0, int(span*2*e.cfg.HighCutHz)+2)
		if e.apneaSec > 0 {
			a.pause = NewPauseTracker(1/binInterval, e.origin, e.apneaSec, e.windowBins)
		}
	}
	e.vantages.add(v)
	e.ants = append(e.ants, a)
	return a
}

// streamOf returns the Differencer slot of r's stream on vantage a. A
// cached tag on a cached channel finds it by scan and index, without
// hashing, and its first report creates it by slot; every report
// outside the cache goes through the Differencer's index. A tag stays
// cached, or uncached, for the vantage's life, so each stream lives in
// exactly one of the two.
func (e *Engine) streamOf(a *antennaState, r *reader.TagReport) int32 {
	user, tag, ch := r.EPC.UserID(), r.EPC.TagID(), r.ChannelIndex
	for i := range a.tags {
		t := &a.tags[i]
		if t.tag != tag || t.user != user {
			continue
		}
		if uint(ch) < uint(len(t.chans)) && t.chans[ch] >= 0 {
			return t.chans[ch]
		}
		return e.cacheStream(t, a.ri, r, ch)
	}
	if len(a.tags) < cachedTags {
		a.tags = append(a.tags, tagSlot{user: user, tag: tag})
		return e.cacheStream(&a.tags[len(a.tags)-1], a.ri, r, ch)
	}
	return e.df.stream(a.ri, r)
}

// cacheStream returns the slot of r's stream on cached tag t the
// first time t reports on channel ch. A cached channel's stream is
// created by slot and remembered in t; any other channel's goes through
// the Differencer's index.
func (e *Engine) cacheStream(t *tagSlot, ri int32, r *reader.TagReport, ch int) int32 {
	if ch < 0 || ch >= cachedChannels {
		return e.df.stream(ri, r)
	}
	for len(t.chans) <= ch {
		t.chans = append(t.chans, -1)
	}
	s := e.df.newStream(ri, t.tag, r.AntennaPort)
	t.chans[ch] = s
	return s
}

// observeQuality publishes one vantage's §IV-D.3 inputs through cached
// gauge handles (resolved once per vantage — the tick path allocates
// nothing).
func (e *Engine) observeQuality(a *antennaState, q AntennaQuality) {
	if e.metrics == nil {
		return
	}
	//tagbreathe:allow hotpath cold branch: vec resolution (format, registry lock, label copy) runs once per vantage lifetime; every later tick takes the cached-handle path below
	if a.gRate == nil {
		rdr := ReaderLabel(q.Reader)
		ant := AntennaLabel(q.Antenna)
		a.gRate = e.metrics.AntennaReadRate.With(e.userLbl, rdr, ant)
		a.gRSSI = e.metrics.AntennaMeanRSSI.With(e.userLbl, rdr, ant)
		a.gScore = e.metrics.AntennaScore.With(e.userLbl, rdr, ant)
	}
	a.gRate.Set(q.ReadRate)
	a.gRSSI.Set(q.MeanRSSI)
	a.gScore.Set(q.Score())
}

// selectAntenna runs §IV-D.3 over the current tick stats, generalized
// to (reader, antenna) vantages: highest score wins, ties break to the
// lowest vantage (reader name, then port) — so a user inside two
// readers' overlapping coverage is estimated from exactly one stream,
// deterministically, instead of double-counted. span is the read-rate
// denominator for single-timestamp vantages.
func (e *Engine) selectAntenna(span func(a *antennaState) float64, publish bool) (*antennaState, vantage, bool) {
	var best *antennaState
	var bestV vantage
	bestScore := 0.0
	for _, a := range e.ants {
		v := a.v
		if a.reads == 0 {
			continue
		}
		q := AntennaQuality{
			UserID:   e.userID,
			Reader:   v.reader,
			Antenna:  v.port,
			Reads:    a.reads,
			ReadRate: float64(a.reads) / span(a),
			MeanRSSI: a.rssiSum / float64(a.reads),
		}
		if publish {
			e.observeQuality(a, q)
		}
		s := q.Score()
		if best == nil || s > bestScore || (fmath.ExactEq(s, bestScore) && v.less(bestV)) {
			best, bestV, bestScore = a, v, s
		}
	}
	return best, bestV, best != nil
}

// TickUpdate produces this user's rate update as of asOf (stream
// seconds), or false when the window holds no extractable signal. The
// caller stamps RateUpdate.Time. In streaming mode the tick costs
// O(new bins · taps); in the recompute modes extraction is O(window)
// but fusion stays incremental.
//
//tagbreathe:hotpath per-tick analysis; the streaming mode must stay O(new bins) and allocation-free
func (e *Engine) TickUpdate(asOf float64) (RateUpdate, bool) {
	if !e.started {
		return RateUpdate{}, false
	}
	// Batch fusion over [t0, t1) excludes samples with T ≥ t1; settle
	// everything strictly older than this tick's boundary.
	for _, a := range e.ants {
		a.fuser.SettleBefore(asOf)
	}
	if e.cfg.Filter == FilterFIRStreaming {
		e.advanceChains(asOf)
		// Crossings that slid out of the window are gone for good, on
		// every vantage: a non-selected vantage's buffer is read only
		// once selection moves onto it, and this is the same cut it
		// would get then. Pruning in place reuses the backing arrays,
		// so steady state allocates nothing. Crossings carry the
		// filter's output time, one group delay behind asOf, so the
		// window they fill ends there too: cutting at asOf − window
		// would leave the chain a window shorter by the delay. A
		// vantage whose reads restarted after a gap cuts later still
		// (antennaState.restart).
		t0 := max(asOf-e.windowSec-float64(e.delay)*binInterval, e.origin)
		for _, a := range e.ants {
			cut := max(t0, a.restart)
			idx := 0
			for idx < len(a.crossings) && a.crossings[idx].T < cut {
				idx++
			}
			if idx > 0 {
				a.crossings = append(a.crossings[:0], a.crossings[idx:]...)
			}
		}
	}
	tickSpan := func(a *antennaState) float64 {
		span := a.latest - a.earliest
		if span <= 0 {
			// A single read (or one burst at one timestamp) is one read
			// per tick stride, not one read per second.
			span = e.strideSec
			if span <= 0 {
				span = 1
			}
		}
		return span
	}
	best, bestV, ok := e.selectAntenna(tickSpan, true)
	if !ok {
		return RateUpdate{}, false
	}
	if e.cfg.Filter == FilterFIRStreaming {
		return e.streamingUpdate(best, bestV)
	}
	//tagbreathe:allow hotpath legacy O(window) recompute modes allocate by design; FIRStreaming is the enforced real-time mode
	return e.recomputeUpdate(best, bestV, asOf)
}

// advanceChains pushes every antenna's newly *final* bins through its
// Eq. 7 accumulator → streaming band-pass → crossing tracker. A bin is
// final once no open stream's next sample, and no held sample, can
// deposit into it.
func (e *Engine) advanceChains(asOf float64) {
	limit := asOf
	if fl := e.df.EarliestOpenStream(asOf); fl < limit {
		limit = fl
	}
	for _, a := range e.ants {
		if h := a.fuser.HeldFloor(); h < limit {
			limit = h
		}
	}
	limIdx := int((limit - e.origin) / binInterval)
	total := 0
	for _, a := range e.ants {
		total += e.advance(a, limIdx)
	}
	if e.metrics != nil {
		e.metrics.TickBins.Observe(float64(total))
	}
}

func (e *Engine) advance(a *antennaState, limIdx int) int {
	if limIdx <= a.next {
		return 0
	}
	// A bin's fused value is the running sum of the fuser's
	// differences. Start it at the last bin read, the guard bin
	// EvictBefore keeps: a deposit that reached back into that bin
	// after it was read changed its difference and the next one, and
	// summing both keeps the later bins whole.
	f := a.fuser
	v := f.ValueAt(a.next - 1)
	n := limIdx - a.next
	// The bins go through the band-pass a block at a time: the Eq. 7
	// sums of a block first, then its filtered values in place.
	var blk [sigproc.BlockLen]float64
	for i := a.next; i < limIdx; {
		b := blk[:min(limIdx-i, len(blk))]
		for q := range b {
			v += f.diffAt(i + q)
			a.acc += v
			b[q] = a.acc
		}
		a.bp.PushBlock(b)
		for _, y := range b {
			if i >= e.warm {
				// The output at push i is the filtered value of bin
				// i − delay; stamp the crossing on that bin's time.
				tOut := e.origin + float64(i-e.delay)*binInterval
				if zc, ok := a.tracker.Push(tOut, y); ok {
					a.crossings = append(a.crossings, zc)
				}
			}
			if a.pause != nil && i >= e.delay {
				a.pause.Push(y)
			}
			i++
		}
	}
	a.next = limIdx
	return n
}

// streamingUpdate assembles a RateUpdate from the selected vantage's
// incrementally maintained crossings, already pruned to the window —
// O(window crossings), no filtering work.
func (e *Engine) streamingUpdate(a *antennaState, v vantage) (RateUpdate, bool) {
	cr := a.crossings
	rate := rateOverCrossings(cr)
	if rate <= 0 {
		return RateUpdate{}, false
	}
	instant := rate
	if r := sigproc.RateFromCrossings(cr, crossingBufferM); r > 0 {
		instant = r * 60
	}
	var pauses [][2]float64
	if a.pause != nil {
		// Incremental: the tracker followed the filtered stream as bins
		// finalized; the tick only refreshes the envelope threshold and
		// reads out the window's runs.
		pauses = a.pause.Tick()
	}
	return RateUpdate{
		UserID:      e.userID,
		RateBPM:     rate,
		InstantBPM:  instant,
		Crossings:   len(cr),
		Reads:       a.reads,
		ReaderID:    v.reader,
		AntennaPort: v.port,
		Pauses:      pauses,
	}, true
}

// recomputeUpdate is the FFT / batch-FIR tick: the window's bins come
// straight off the selected vantage's ring (no re-fusion, no sample
// copies) and extraction recomputes over them.
func (e *Engine) recomputeUpdate(a *antennaState, v vantage, asOf float64) (RateUpdate, bool) {
	iHi := int((asOf-e.origin)/binInterval) + 1
	iLo := iHi - e.windowBins
	if iLo < 0 {
		iLo = 0
	}
	*e.window = a.fuser.WindowBins(iLo, iHi, (*e.window)[:0])
	bins := *e.window
	if e.metrics != nil {
		e.metrics.TickBins.Observe(float64(len(bins)))
	}
	nz := 0
	for _, v := range bins {
		if fmath.NonZero(v) {
			nz++
		}
	}
	if nz < 4 {
		return RateUpdate{}, false
	}
	sigT0 := e.origin + float64(iLo)*binInterval
	sig, err := ExtractBreath(bins, binInterval, sigT0, e.cfg)
	if err != nil {
		return RateUpdate{}, false
	}
	rate := sig.OverallRateBPM()
	if rate <= 0 {
		return RateUpdate{}, false
	}
	instant := rate
	if series := sig.InstantRateSeriesBPM(crossingBufferM); len(series) > 0 {
		instant = series[len(series)-1].V
	}
	var pauses [][2]float64
	if e.apneaSec > 0 {
		pauses = sig.DetectPauses(e.apneaSec)
	}
	return RateUpdate{
		UserID:      e.userID,
		RateBPM:     rate,
		InstantBPM:  instant,
		Crossings:   len(sig.Crossings),
		Reads:       a.reads,
		ReaderID:    v.reader,
		AntennaPort: v.port,
		Pauses:      pauses,
	}, true
}

// CloseVantage retires a (reader, antenna) vantage's phase streams:
// quality-aware shedding has stopped forwarding its reports, and an
// open stream that will never read again would pin the finality
// horizon (EarliestOpenStream) for maxPhaseGap — stalling every chain
// this user owns, the selected vantage's included. Deleting the
// streams lets finality advance on the surviving vantages
// immediately; held fusion samples settle (their displacements are
// already differenced). The vantage's accumulated state stays: if the
// gate reopens, its streams re-prime on the next report.
func (e *Engine) CloseVantage(readerID string, port int) {
	e.df.closeStreams(readerID, port)
	if i, ok := e.vantages.find(vantage{reader: readerID, port: port}); ok {
		e.ants[i].fuser.SettleBefore(math.Inf(1))
	}
}

// ResetTickStats clears the per-tick §IV-D.3 selection stats so the
// next tick scores only the stream since this one.
func (e *Engine) ResetTickStats() {
	for _, a := range e.ants {
		a.reads = 0
		a.rssiSum = 0
		a.earliest = 0
		a.latest = 0
		a.statStarted = false
	}
}

// EvictBefore releases fused bins no tick will read again: in the
// recompute modes the bins before cutoff, which slid out of the
// window; in streaming mode, whatever cutoff is, every bin the chain
// has consumed but the last. No future sample can deposit below the
// chain's cursor, since every open stream's last read and every held
// sample's accrual start lie at or after the finality limit the cursor
// was cut at (advanceChains); the last bin guards the deposit floor
// against rounding. Streaming mode also folds the Eq. 7 accumulator
// into the filter state (StreamBandPass.Rebase) so it stays bounded on
// unbounded streams without injecting a step transient.
func (e *Engine) EvictBefore(cutoff float64) {
	if !e.started {
		return
	}
	for _, a := range e.ants {
		if e.cfg.Filter != FilterFIRStreaming {
			a.fuser.EvictBefore(cutoff)
			continue
		}
		a.fuser.evictTo(a.next - 1)
		if a.next >= e.warm {
			a.bp.Rebase(a.acc)
			a.acc = 0
		}
	}
}

// EngineLag is a point-in-time view of how far one engine's internal
// stages trail the stream clock — the per-stage lag accounting that
// answers "which stage is behind" when updates go stale under load.
type EngineLag struct {
	// PendingBins counts fused bins deposited but not yet pushed
	// through the streaming filter chains, summed over antennas. A
	// persistently growing value means ticks are not keeping up with
	// fusion. Always zero outside FilterFIRStreaming mode (the
	// recompute modes hold no push cursor).
	PendingBins int
	// HeldAge is the stream-time age (seconds before asOf) of the
	// oldest accrual still held back for bin finality, worst antenna;
	// 0 when nothing is held. This is structural fusion latency, not
	// backlog: held samples settle when a later sample arrives.
	HeldAge float64
	// FilterFill is the smallest warmup fill fraction (0..1) across
	// the streaming filter chains — below 1 the engine is still inside
	// the filter's warmup and suppresses estimates. 1 outside
	// streaming mode, which has no warmup.
	FilterFill float64
}

// Lag reports the engine's per-stage backlog at stream time asOf. Like
// every Engine method it may only be called from the goroutine that
// owns the engine (the shard worker); it allocates nothing.
//
//tagbreathe:hotpath called once per (user, tick) inside the worker tick branch
func (e *Engine) Lag(asOf float64) EngineLag {
	lag := EngineLag{FilterFill: 1}
	for _, a := range e.ants {
		if h := a.fuser.HeldFloor(); !math.IsInf(h, 1) {
			if age := asOf - h; age > lag.HeldAge {
				lag.HeldAge = age
			}
		}
		if e.cfg.Filter != FilterFIRStreaming {
			continue
		}
		if p := a.fuser.Hi() - a.next; p > 0 {
			lag.PendingBins += p
		}
		if e.warm > 0 && a.next < e.warm {
			if fill := float64(a.next) / float64(e.warm); fill < lag.FilterFill {
				lag.FilterFill = fill
			}
		}
	}
	return lag
}

// FlushEstimate is the batch path's terminal operation: feed every
// report of the window [t0, t1], then flush once. It reproduces the
// legacy estimateShard pipeline exactly — §IV-D.3 selection over the
// whole span, Eq. 6 fusion bit-identical to FuseBins, §IV-B
// extraction, Eq. 5 rates — and returns nil when the user is not
// monitorable in this window. Single-shot: do not mix with TickUpdate.
func (e *Engine) FlushEstimate(t0, t1 float64) *UserEstimate {
	if !e.started {
		return nil
	}
	span := t1 - t0
	if span <= 0 {
		span = 1 // parity with RankAntennas' degenerate-span guard
	}
	best, bestV, ok := e.selectAntenna(func(*antennaState) float64 { return span }, false)
	if !ok {
		return nil
	}
	if best.fuser.Adds() == 0 {
		return nil
	}
	bins := best.fuser.Flush(t0, t1)
	var sig *BreathSignal
	if e.cfg.Filter == FilterFIRStreaming {
		sig = e.streamingSignal(best, bins, t0)
	} else {
		s, err := ExtractBreath(bins, binInterval, t0, e.cfg)
		if err != nil {
			return nil
		}
		sig = s
	}
	if sig == nil {
		return nil
	}
	rms, _ := fusedStats(bins)
	est := &UserEstimate{
		UserID:      e.userID,
		RateBPM:     sig.OverallRateBPM(),
		RateSeries:  sig.InstantRateSeriesBPM(crossingBufferM),
		Signal:      sig,
		ReaderID:    bestV.reader,
		AntennaPort: bestV.port,
		Reads:       best.reads,
		TagsSeen:    e.df.tagsOn(best.ri, bestV.port),
		FusedRMS:    rms,
	}
	if est.RateBPM <= 0 {
		return nil
	}
	return est
}

// streamingSignal runs the whole flushed bin stream through the
// antenna's streaming chain — the batch face of FilterFIRStreaming, so
// batch and monitor share one filter implementation in that mode.
func (e *Engine) streamingSignal(a *antennaState, bins []float64, t0 float64) *BreathSignal {
	if len(bins) < 8 || a.bp == nil {
		return nil
	}
	// The Eq. 7 sums go through the band-pass in one block, filtered in
	// place.
	ys := make([]float64, len(bins))
	for i, v := range bins {
		a.acc += v
		ys[i] = a.acc
	}
	a.bp.PushBlock(ys)
	for i, y := range ys {
		if i >= e.warm {
			tOut := t0 + float64(i-e.delay)*binInterval
			if zc, ok := a.tracker.Push(tOut, y); ok {
				a.crossings = append(a.crossings, zc)
			}
		}
	}
	out := ys[min(e.delay, len(ys)):]
	return &BreathSignal{
		T0:         t0,
		SampleRate: 1 / binInterval,
		Samples:    out,
		Crossings:  append([]sigproc.ZeroCrossing(nil), a.crossings...),
	}
}
