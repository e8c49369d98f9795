package sigproc

import (
	"fmt"
	"math"

	"tagbreathe/internal/fmath"
)

// Streaming counterparts of the batch filtering primitives. The batch
// pipeline filters a whole window at once (Convolve, MovingAverage,
// BandPassFFT); the incremental stage engine instead pushes one sample
// at a time through stateful operators whose per-sample cost is O(taps)
// regardless of how long the stream or the analysis window is. All
// operators here are causal: the price of statefulness is group delay —
// a linear-phase FIR of m taps reports the signal (m−1)/2 samples late.

// StreamFIR is a causal FIR filter: Push(x) returns
//
//	y[n] = Σ_j h[j]·x[n−j]
//
// with the stream zero-padded before its start. For a linear-phase
// (symmetric) h the output is the input delayed by Delay() samples, so
// callers align timestamps by subtracting Delay() sample periods.
// PushBlock filters a block of samples at a time, with outputs equal to
// Push's bit for bit.
type StreamFIR struct {
	h []float64
	// buf holds the inputs newest first: buf[pos] is x[n], buf[pos+1]
	// is x[n−1], and so on, so each output reads len(h) consecutive
	// slots in h's order. New inputs fill downward from pos; when pos
	// reaches 0 the len(h)−1 newest inputs, all that later outputs
	// read, move back to the top. That compaction runs once per
	// BlockLen inputs, and no output reads across a wrap. buf starts
	// as len(h)−1 zeros above pos (the zero padding).
	buf []float64
	pos int
}

// BlockLen is how many inputs a StreamFIR takes between compactions of
// its input buffer, which holds len(h)−1+BlockLen samples. Blocks of
// BlockLen samples make one compaction and one kernel call each.
const BlockLen = 16

// NewStreamFIR builds a streaming FIR from coefficients h (most callers
// design h with FIRLowPass). h is not copied; do not mutate it.
func NewStreamFIR(h []float64) (*StreamFIR, error) {
	if len(h) == 0 {
		return nil, fmt.Errorf("sigproc: empty FIR coefficient vector")
	}
	return newStreamFIR(h), nil
}

func newStreamFIR(h []float64) *StreamFIR {
	return &StreamFIR{h: h, buf: make([]float64, len(h)-1+BlockLen), pos: BlockLen}
}

// Delay returns the filter's group delay in samples, (len(h)−1)/2.
func (f *StreamFIR) Delay() int { return (len(f.h) - 1) / 2 }

// Push consumes one input sample and returns the next output sample:
// a block of one.
func (f *StreamFIR) Push(x float64) float64 {
	b := [1]float64{x}
	f.PushBlock(b[:])
	return b[0]
}

// PushBlock consumes the samples of x in order and overwrites each with
// its output, as that many Push calls would return them.
//
//tagbreathe:hotpath O(taps) per sample, every sample of every stream
func (f *StreamFIR) PushBlock(x []float64) {
	hist := len(f.h) - 1
	for len(x) > 0 {
		if f.pos == 0 {
			copy(f.buf[len(f.buf)-hist:], f.buf[:hist])
			f.pos = len(f.buf) - hist
		}
		k := min(len(x), f.pos)
		f.pos -= k
		in := f.buf[f.pos : f.pos+k+hist]
		for i, v := range x[:k] {
			in[k-1-i] = v
		}
		convolve(f.h, in, x[:k])
		x = x[k:]
	}
}

// convolve writes the outputs of the k = len(out) newest inputs, which
// sit newest first at in[0:k] ahead of their len(h)−1 predecessors:
// out[k−1−s] = Σ_j h[j]·in[s+j]. It computes four outputs per pass
// over the taps; each sum still runs in h's order, so every output has
// the bits a single-output loop gives it.
func convolve(h, in, out []float64) {
	k := len(out)
	s := 0
	for ; s+4 <= k; s += 4 {
		w0 := in[s:][:len(h)]
		w1 := in[s+1:][:len(h)]
		w2 := in[s+2:][:len(h)]
		w3 := in[s+3:][:len(h)]
		var a0, a1, a2, a3 float64
		for j, c := range h {
			a0 += c * w0[j]
			a1 += c * w1[j]
			a2 += c * w2[j]
			a3 += c * w3[j]
		}
		out[k-1-s], out[k-2-s], out[k-3-s], out[k-4-s] = a0, a1, a2, a3
	}
	for ; s < k; s++ {
		w := in[s:][:len(h)]
		var a float64
		for j, c := range h {
			a += c * w[j]
		}
		out[k-1-s] = a
	}
}

// Rebase subtracts c from every retained input sample, as if the whole
// stream so far had been shifted down by c. For a DC-normalized h
// (Σh = 1) the post-warmup output shifts by exactly −c; the engine uses
// this to fold window-exited mass out of its running Eq. 7 accumulator
// without injecting a step transient into the filter.
func (f *StreamFIR) Rebase(c float64) {
	hist := f.buf[f.pos : f.pos+len(f.h)-1]
	for i := range hist {
		hist[i] -= c
	}
}

// StreamBandPass is the causal streaming band-pass for §IV-B's
// [lowHz, highHz] breathing band: the windowed-sinc low-pass at highHz
// (a linear-phase StreamFIR) followed by a 2nd-order Butterworth
// high-pass at lowHz that removes drift. The high-pass is an IIR
// section (bilinear transform with a prewarped cutoff, direct form I);
// its two zeros at DC reject offset and linear drift exactly once
// settled.
//
// Push returns, for the n-th input sample, the band-passed value of
// input sample n − Delay(): the low-pass's linear-phase delay. The
// high-pass adds no delay to speak of but is not linear-phase; at a
// frequency f it scales by |H(f)| and leads by ∠H(f), a lead that falls
// from 90° at lowHz to 16° at 0.25 Hz (for lowHz = 0.05 Hz). Outputs are
// settled once Warmup() samples have been pushed; before that the
// implicit zero padding still rings.
type StreamBandPass struct {
	fir *StreamFIR

	// High-pass y[n] = g·Δ²x[n] − a1·y[n−1] − a2·y[n−2], with
	// Δ²x[n] = (x[n] − x[n−1]) − (x[n−1] − x[n−2]): the numerator
	// g·(1 − z⁻¹)² written as a second difference. The input taps are
	// kept as the last input and the last first difference, so only x1
	// carries the stream's level (see Rebase).
	g, a1, a2 float64
	x1, dx1   float64 // x[n−1] and x[n−1] − x[n−2]
	y1, y2    float64 // y[n−1] and y[n−2]
	settle    int
}

// NewStreamBandPass designs a streaming band-pass for the given sample
// rate keeping [lowHz, highHz]. The low-pass leg is FIRLowPass with
// 4·rate/highHz taps, the same low-pass the batch FIR path uses; the
// drift leg is a 2nd-order Butterworth high-pass at lowHz where the
// batch path subtracts a centered moving average, so the two FIR modes
// no longer share a design.
func NewStreamBandPass(rate, lowHz, highHz float64) (*StreamBandPass, error) {
	if rate <= 0 || lowHz <= 0 || highHz <= lowHz {
		return nil, fmt.Errorf("sigproc: invalid streaming band [%v, %v] Hz at rate %v", lowHz, highHz, rate)
	}
	taps := int(4*rate/highHz) | 1
	h, err := FIRLowPass(taps, rate, highHz)
	if err != nil {
		return nil, err
	}
	fir, err := NewStreamFIR(h)
	if err != nil {
		return nil, err
	}
	// Bilinear transform of s²/(s² + √2·ωc·s + ωc²) with ωc prewarped
	// so the −3 dB point lands on lowHz: K = tan(π·lowHz/rate).
	// FIRLowPass has already checked highHz < rate/2, so 0 < K < 1.
	k := math.Tan(math.Pi * lowHz / rate)
	norm := 1 / (1 + math.Sqrt2*k + k*k)
	a2 := (1 - math.Sqrt2*k + k*k) * norm
	// The poles are a complex-conjugate pair of radius √a2: a transient
	// decays by √a2 per sample, i.e. by e per τ = −1/ln√a2 samples
	// (≈ 72 at 16 Hz and 0.05 Hz). The settle is 2√2·τ, the digital
	// form of the analog prototype's 4/ωc (its poles' real part is
	// ωc/√2), truncated to whole samples as the tap count is: the
	// transient envelope is then down to e^(−2√2) ≈ 6 %.
	tau := -1 / math.Log(math.Sqrt(a2))
	return &StreamBandPass{
		fir:    fir,
		g:      norm,
		a1:     2 * (k*k - 1) * norm,
		a2:     a2,
		settle: int(2 * math.Sqrt2 * tau),
	}, nil
}

// Fresh returns a band-pass of f's design with fresh state, as
// NewStreamBandPass would build it for the same band. It shares f's
// low-pass taps, which no band-pass writes, so one design can serve
// any number of streams on any number of goroutines.
func (f *StreamBandPass) Fresh() *StreamBandPass {
	return &StreamBandPass{
		fir:    newStreamFIR(f.fir.h),
		g:      f.g,
		a1:     f.a1,
		a2:     f.a2,
		settle: f.settle,
	}
}

// Delay returns the group delay in samples that Push's output is
// aligned to: the low-pass's linear-phase delay, (taps−1)/2.
func (f *StreamBandPass) Delay() int { return f.fir.Delay() }

// Settle returns how many samples the high-pass needs for a transient
// to die down (see NewStreamBandPass): after a disturbance has passed
// through the low-pass, outputs within Settle() samples still carry it.
func (f *StreamBandPass) Settle() int { return f.settle }

// Warmup returns how many samples must be pushed before outputs are
// free of start-of-stream padding transients: the low-pass's taps plus
// the high-pass's settle.
func (f *StreamBandPass) Warmup() int { return len(f.fir.h) + f.settle }

// Push consumes one input sample and returns the band-passed value of
// the input Delay() samples ago: a block of one.
func (f *StreamBandPass) Push(x float64) float64 {
	b := [1]float64{x}
	f.PushBlock(b[:])
	return b[0]
}

// PushBlock consumes the samples of x in order and overwrites each with
// its output, as that many Push calls would return them: the low-pass
// filters the block, then the high-pass runs through it sample by
// sample.
//
//tagbreathe:hotpath runs once per block of fused bins on the streaming tick path
func (f *StreamBandPass) PushBlock(x []float64) {
	f.fir.PushBlock(x)
	for i, lp := range x {
		d := lp - f.x1
		y := f.g*(d-f.dx1) - f.a1*f.y1 - f.a2*f.y2
		f.x1, f.dx1 = lp, d
		f.y1, f.y2 = y, f.y1
		x[i] = y
	}
}

// Rebase subtracts c from every retained input sample, as if the input
// stream had been c lower all along: the low-pass ring and the
// high-pass's last input shift by c, and the rest of the high-pass
// state (a difference and two outputs) does not carry the level.
// Post-warmup outputs are unchanged, so the engine can keep its
// running accumulator bounded on unbounded streams.
func (f *StreamBandPass) Rebase(c float64) {
	f.fir.Rebase(c)
	f.x1 -= c
}

// CrossingTracker is the incremental form of ZeroCrossings: push
// (time, value) samples in order and collect the same crossings the
// batch detector finds, including its exact-zero handling, linear
// interpolation, and minGap hysteresis against the last accepted
// crossing.
type CrossingTracker struct {
	minGap   float64
	primed   bool
	prevV    float64
	prevT    float64
	prevSign int
	lastT    float64
	hasLast  bool
}

// NewCrossingTracker builds a tracker with the given minimum spacing
// between accepted crossings (seconds).
func NewCrossingTracker(minGap float64) *CrossingTracker {
	return &CrossingTracker{minGap: minGap}
}

// Push consumes one sample and reports the zero crossing it completed,
// if any. Fed the same uniform series sample-by-sample, the sequence of
// returned crossings is identical to ZeroCrossings' output.
//
//tagbreathe:hotpath runs once per filtered bin on the streaming tick path
func (c *CrossingTracker) Push(t, v float64) (ZeroCrossing, bool) {
	if !c.primed {
		c.primed = true
		c.prevV, c.prevT, c.prevSign = v, t, sign(v)
		return ZeroCrossing{}, false
	}
	s := sign(v)
	var out ZeroCrossing
	var ok bool
	if s != 0 && c.prevSign != 0 && s != c.prevSign {
		a, b := c.prevV, v
		frac := 0.0
		if !fmath.ExactEq(a, b) {
			frac = a / (a - b)
		}
		tc := c.prevT + frac*(t-c.prevT)
		if !c.hasLast || tc-c.lastT >= c.minGap {
			out = ZeroCrossing{T: tc, Rising: s > 0}
			ok = true
			c.lastT = tc
			c.hasLast = true
		}
		c.prevSign = s
	} else if s != 0 {
		c.prevSign = s
	}
	c.prevV, c.prevT = v, t
	return out, ok
}
