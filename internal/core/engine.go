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
//	BinFuser     → the Eq. 6 bin grid as a ring buffer; a new sample
//	               only touches the bins it lands in, O(spread) per add
//	Eq. 7 acc    → a running sum per antenna with window-exit
//	               correction (StreamBandPass.Rebase), O(1) per bin
//	StreamBandPass → causal linear-phase FIR band-pass, O(taps) per bin
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
	// FilterFIRStreaming runs the causal streaming FIR chain: per-tick
	// cost is O(new bins · taps) regardless of window length, at the
	// price of the filter's group delay (≈13 s at the default band) —
	// rate updates describe breaths that happened one group delay ago.
	FilterFIRStreaming
)

// BinFuser is the incremental form of FuseBins/FuseBinsLiteral: it
// maintains the Eq. 6 bin grid (anchored at origin, binSec wide) as a
// growable ring buffer, depositing each displacement sample into only
// the bins its accrual interval covers. Deposits replicate the batch
// fuser's arithmetic exactly, so a flush over [t0, t1) reproduces
// FuseBins(samples, binSec, t0, t1) bit-for-bit when fed the same
// samples in the same order.
//
// Batch fusion knows the window [t0, t1) up front and excludes samples
// with T ≥ t1; a streaming fuser cannot know t1, so it holds back the
// samples carrying the newest timestamp seen (pending) and deposits
// them only once a strictly newer sample arrives or SettleBefore/Flush
// declares a bound — exactly reproducing the batch exclusion at every
// tick boundary.
type BinFuser struct {
	binSec  float64
	literal bool
	origin  float64 // left edge of bin 0

	ring []float64 // power-of-two sized; slot = index & mask
	mask int
	base int // first live bin index; bins below are evicted (zero)
	hi   int // one past the highest touched bin index
	adds int

	floor float64 // origin + base·binSec: the deposit renorm bound

	pending      []DisplacementSample // samples at the newest T seen
	pendT        float64
	pendMinTPrev float64
}

// NewBinFuser builds a fuser on the grid {origin + i·binSec}. literal
// selects the paper's verbatim Eq. 6 (whole sample into the ending
// bin) over the default interval spreading. capacityBins sizes the
// ring initially; it grows on demand.
func NewBinFuser(binSec float64, literal bool, origin float64, capacityBins int) *BinFuser {
	cap2 := 16
	for cap2 < capacityBins {
		cap2 <<= 1
	}
	return &BinFuser{
		binSec:  binSec,
		literal: literal,
		origin:  origin,
		ring:    make([]float64, cap2),
		mask:    cap2 - 1,
		floor:   origin,
	}
}

// binIndex maps a time onto the grid; same arithmetic as the batch
// fuser's int((t-t0)/binInterval) with t0 = origin.
func (f *BinFuser) binIndex(t float64) int { return int((t - f.origin) / f.binSec) }

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

// deposit replicates fuseBins' per-sample arithmetic with the evicted
// floor standing in for the window start t0: identical bin indices,
// identical bin-edge overlap terms, identical renormalization.
func (f *BinFuser) deposit(s DisplacementSample) {
	if s.T < f.floor {
		return // entirely inside the evicted region
	}
	if f.literal {
		f.add(f.clampLow(f.binIndex(s.T)), s.D)
		return
	}
	lo, hi := s.TPrev, s.T
	if lo < f.floor {
		lo = f.floor
	}
	if hi <= lo {
		f.add(f.clampLow(f.binIndex(s.T)), s.D)
		return
	}
	first := f.clampLow(f.binIndex(lo))
	last := f.binIndex(hi)
	if last < first {
		last = first
	}
	span := hi - lo
	for i := first; i <= last; i++ {
		bLo := f.origin + float64(i)*f.binSec
		bHi := bLo + f.binSec
		if bLo < lo {
			bLo = lo
		}
		if bHi > hi {
			bHi = hi
		}
		if bHi > bLo {
			f.add(i, s.D*(bHi-bLo)/span)
		}
	}
}

func (f *BinFuser) clampLow(i int) int {
	if i < f.base {
		return f.base
	}
	return i
}

// add accumulates into bin i, growing the ring when the live span
// [base, i] no longer fits.
func (f *BinFuser) add(i int, v float64) {
	if i-f.base >= len(f.ring) {
		f.grow(i - f.base + 1)
	}
	f.ring[i&f.mask] += v
	if i >= f.hi {
		f.hi = i + 1
	}
}

// grow doubles the ring until it holds need bins.
//
//tagbreathe:allow hotpath amortized doubling; a ring sized for the window never grows in steady state
func (f *BinFuser) grow(need int) {
	cap2 := len(f.ring) * 2
	for cap2 < need {
		cap2 <<= 1
	}
	next := make([]float64, cap2)
	for i := f.base; i < f.hi; i++ {
		next[i&(cap2-1)] = f.ring[i&f.mask]
	}
	f.ring = next
	f.mask = cap2 - 1
}

// ValueAt returns bin i's fused value (zero for evicted or untouched
// bins).
func (f *BinFuser) ValueAt(i int) float64 {
	if i < f.base || i >= f.hi {
		return 0
	}
	return f.ring[i&f.mask]
}

// EvictBefore zeroes and releases all bins strictly before the bin
// containing cutoff, advancing the deposit floor. Samples reaching
// into the evicted region are renormalized over their remaining
// overlap, exactly as batch fusion renormalizes at its window start.
func (f *BinFuser) EvictBefore(cutoff float64) {
	newBase := f.binIndex(cutoff)
	if newBase <= f.base {
		return
	}
	top := newBase
	if top > f.hi {
		top = f.hi
	}
	for i := f.base; i < top; i++ {
		f.ring[i&f.mask] = 0
	}
	f.base = newBase
	if f.hi < f.base {
		f.hi = f.base
	}
	f.floor = f.origin + float64(f.base)*f.binSec
}

// WindowBins appends bins [iLo, iHi) to dst and returns it — the
// recompute modes' window view, no per-tick re-fusion required.
func (f *BinFuser) WindowBins(iLo, iHi int, dst []float64) []float64 {
	for i := iLo; i < iHi; i++ {
		dst = append(dst, f.ValueAt(i))
	}
	return dst
}

// Flush settles what can settle before t1 and materializes the grid
// over [t0, t1) — the batch path's terminal operation. Fed the same
// in-order samples, the result is bit-identical to
// FuseBins(samples, binSec, t0, t1) (and, in literal mode, matches
// FuseBinsLiteral up to the addition order of out-of-grid clamping).
func (f *BinFuser) Flush(t0, t1 float64) []float64 {
	if f.binSec <= 0 || t1 <= t0 {
		return nil
	}
	n := int((t1 - t0) / f.binSec)
	if n <= 0 {
		return nil
	}
	f.SettleBefore(t1)
	out := make([]float64, n)
	i0 := f.binIndex(t0)
	for i := range out {
		out[i] = f.ValueAt(i0 + i)
	}
	if f.literal {
		// Batch clampBin folds beyond-grid deposits into the last bin.
		for i := i0 + n; i < f.hi; i++ {
			out[n-1] += f.ValueAt(i)
		}
	}
	return out
}

// EarliestOpenStream returns the earliest last-read time among streams
// that can still produce a displacement sample at time now (their gap
// to now is within MaxPhaseGap), or now if none can. A future sample's
// accrual interval starts at its stream's last read, so every fused
// bin strictly before this bound is final — the streaming filter may
// consume it.
func (df *Differencer) EarliestOpenStream(now float64) float64 {
	floor := now
	for _, lp := range df.last {
		if !lp.valid || now-lp.t > df.cfg.MaxPhaseGap {
			continue
		}
		if lp.t < floor {
			floor = lp.t
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
	fuser *BinFuser

	// Per-tick selection stats; ResetTickStats clears them. tags is
	// cumulative (the batch path reports tags seen over the whole run).
	reads       int
	rssiSum     float64
	earliest    float64
	latest      float64
	statStarted bool
	tags        map[uint32]struct{}

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

	binSec     float64
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

	df   *Differencer
	ants map[vantage]*antennaState

	origin    float64
	originSet bool
	started   bool

	// Streaming chain geometry (FilterFIRStreaming only).
	delay, warm int

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
	binSec := cfg.BinInterval.Seconds()
	var delay, warm int
	if cfg.Filter == FilterFIRStreaming {
		if cfg.MotionRejection {
			cfg.Filter = FilterFIRBatch
		} else if bp, err := sigproc.NewStreamBandPass(1/binSec, cfg.LowCutHz, cfg.HighCutHz); err != nil {
			cfg.Filter = FilterFFT
		} else {
			delay, warm = bp.Delay(), bp.Warmup()
		}
	}
	e := &Engine{
		cfg:       cfg,
		binSec:    binSec,
		windowSec: opts.Window,
		strideSec: opts.TickStride,
		apneaSec:  opts.ApneaAlarmSec,
		userID:    opts.UserID,
		userLbl:   UserLabel(opts.UserID),
		metrics:   opts.Metrics,
		df:        NewDifferencer(cfg),
		ants:      make(map[vantage]*antennaState),
		origin:    opts.Origin,
		originSet: opts.OriginSet,
		delay:     delay,
		warm:      warm,
		window:    opts.window,
	}
	if e.window == nil {
		e.window = new([]float64)
	}
	e.windowBins = int(e.windowSec / binSec)
	return e
}

// ant returns (creating on first sight) one vantage's state.
//
//tagbreathe:allow hotpath construction runs once per vantage at first sight; steady-state calls return the cached state
func (e *Engine) ant(v vantage) *antennaState {
	a, ok := e.ants[v]
	if ok {
		return a
	}
	a = &antennaState{
		fuser: NewBinFuser(e.binSec, e.cfg.LiteralBinning, e.origin, e.windowBins+16),
		tags:  make(map[uint32]struct{}),
	}
	if e.cfg.Filter == FilterFIRStreaming {
		// NewEngine already designed this band, so the error is nil.
		a.bp, _ = sigproc.NewStreamBandPass(1/e.binSec, e.cfg.LowCutHz, e.cfg.HighCutHz)
		a.tracker = sigproc.NewCrossingTracker(e.cfg.MinCrossingGap)
		if e.apneaSec > 0 {
			a.pause = NewPauseTracker(1/e.binSec, e.origin, e.apneaSec, e.windowBins)
		}
	}
	e.ants[v] = a
	return a
}

// Feed ingests one report: tick stats, Eq. 3 differencing, and Eq. 6
// fusion. Reports must arrive in timestamp order. O(1) amortized.
//
//tagbreathe:hotpath runs once per tag read inside every shard
func (e *Engine) Feed(r reader.TagReport) {
	if !e.started {
		e.started = true
		if !e.originSet {
			e.origin = r.Timestamp.Seconds()
		}
	}
	a := e.ant(vantage{reader: r.ReaderID, port: r.AntennaPort})
	a.reads++
	a.rssiSum += float64(r.RSSI)
	ts := r.Timestamp.Seconds()
	if !a.statStarted {
		a.statStarted = true
		a.earliest = ts
	}
	a.latest = ts
	a.tags[r.EPC.TagID()] = struct{}{}
	if d, ok := e.df.Ingest(r); ok {
		a.fuser.Add(d.Sample)
	}
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
	for v, a := range e.ants {
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
		// so steady state allocates nothing.
		t0 := max(asOf-e.windowSec, e.origin)
		for _, a := range e.ants {
			idx := 0
			for idx < len(a.crossings) && a.crossings[idx].T < t0 {
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
	limIdx := int((limit - e.origin) / e.binSec)
	total := 0
	for _, a := range e.ants {
		total += e.advance(a, limIdx)
	}
	if e.metrics != nil {
		e.metrics.TickBins.Observe(float64(total))
	}
}

func (e *Engine) advance(a *antennaState, limIdx int) int {
	n := 0
	for i := a.next; i < limIdx; i++ {
		a.acc += a.fuser.ValueAt(i)
		y := a.bp.Push(a.acc)
		if i >= e.warm {
			// The output at push i is the filtered value of bin
			// i − delay; stamp the crossing on that bin's time.
			tOut := e.origin + float64(i-e.delay)*e.binSec
			if zc, ok := a.tracker.Push(tOut, y); ok {
				a.crossings = append(a.crossings, zc)
			}
		}
		if a.pause != nil && i >= e.delay {
			a.pause.Push(y)
		}
		n++
	}
	if limIdx > a.next {
		a.next = limIdx
	}
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
	if r := sigproc.RateFromCrossings(cr, e.cfg.CrossingBufferM); r > 0 {
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
	iHi := int((asOf-e.origin)/e.binSec) + 1
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
	sigT0 := e.origin + float64(iLo)*e.binSec
	sig, err := ExtractBreath(bins, e.binSec, sigT0, e.cfg)
	if err != nil {
		return RateUpdate{}, false
	}
	rate := sig.OverallRateBPM()
	if rate <= 0 {
		return RateUpdate{}, false
	}
	instant := rate
	if series := sig.InstantRateSeriesBPM(e.cfg.CrossingBufferM); len(series) > 0 {
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

// ResetTickStats clears the per-tick §IV-D.3 selection stats so the
// next tick scores only the stream since this one.
// CloseVantage retires a (reader, antenna) vantage's phase streams:
// quality-aware shedding has stopped forwarding its reports, and an
// open stream that will never read again would pin the finality
// horizon (EarliestOpenStream) for MaxPhaseGap — stalling every chain
// this user owns, the selected vantage's included. Deleting the
// streams lets finality advance on the surviving vantages
// immediately; held fusion samples settle (their displacements are
// already differenced). The vantage's accumulated state stays: if the
// gate reopens, its streams re-prime on the next report.
func (e *Engine) CloseVantage(readerID string, port int) {
	for k := range e.df.last {
		if k.reader == readerID && k.antenna == port {
			delete(e.df.last, k)
		}
	}
	if a, ok := e.ants[vantage{reader: readerID, port: port}]; ok {
		a.fuser.SettleBefore(math.Inf(1))
	}
}

func (e *Engine) ResetTickStats() {
	for _, a := range e.ants {
		a.reads = 0
		a.rssiSum = 0
		a.earliest = 0
		a.latest = 0
		a.statStarted = false
	}
}

// EvictBefore releases all fused bins that slid out of the window. In
// streaming mode the per-antenna Eq. 7 accumulator is folded into the
// filter state (StreamBandPass.Rebase) so it stays bounded on
// unbounded streams without injecting a step transient.
func (e *Engine) EvictBefore(cutoff float64) {
	if !e.started {
		return
	}
	for _, a := range e.ants {
		c := cutoff
		if e.cfg.Filter == FilterFIRStreaming {
			// Never evict a bin the chain hasn't consumed.
			if t := e.origin + float64(a.next)*e.binSec; t < c {
				c = t
			}
		}
		a.fuser.EvictBefore(c)
		if e.cfg.Filter == FilterFIRStreaming && a.bp != nil && a.next >= e.warm {
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
	// the FIR group delay and suppresses estimates. 1 outside
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
		s, err := ExtractBreath(bins, e.binSec, t0, e.cfg)
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
		RateSeries:  sig.InstantRateSeriesBPM(e.cfg.CrossingBufferM),
		Signal:      sig,
		ReaderID:    bestV.reader,
		AntennaPort: bestV.port,
		Reads:       best.reads,
		TagsSeen:    len(best.tags),
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
	out := make([]float64, 0, len(bins))
	for i, v := range bins {
		a.acc += v
		y := a.bp.Push(a.acc)
		if i-e.delay >= 0 {
			out = append(out, y)
		}
		if i >= e.warm {
			tOut := t0 + float64(i-e.delay)*e.binSec
			if zc, ok := a.tracker.Push(tOut, y); ok {
				a.crossings = append(a.crossings, zc)
			}
		}
	}
	return &BreathSignal{
		T0:         t0,
		SampleRate: 1 / e.binSec,
		Samples:    out,
		Crossings:  append([]sigproc.ZeroCrossing(nil), a.crossings...),
	}
}
