package sigproc

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestStreamFIRMatchesCausalConvolution: pushing a series through
// StreamFIR must equal the direct causal convolution with zero padding.
func TestStreamFIRMatchesCausalConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h, err := FIRLowPass(31, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	f, err := NewStreamFIR(h)
	if err != nil {
		t.Fatal(err)
	}
	for n := range x {
		got := f.Push(x[n])
		var want float64
		for j := range h {
			if k := n - j; k >= 0 {
				want += h[j] * x[k]
			}
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("sample %d: stream %.15g, direct %.15g", n, got, want)
		}
	}
}

// TestStreamFIRDelay: a linear-phase FIR's output must be the input
// delayed by Delay() samples (for a smooth in-band input).
func TestStreamFIRDelay(t *testing.T) {
	rate, fc := 16.0, 0.3
	h, err := FIRLowPass(95, rate, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := NewStreamFIR(h)
	d := f.Delay()
	n := 600
	for i := 0; i < n; i++ {
		y := f.Push(math.Sin(2 * math.Pi * fc * float64(i) / rate))
		if i < 3*len(h) { // warmup
			continue
		}
		want := math.Sin(2 * math.Pi * fc * float64(i-d) / rate)
		if math.Abs(y-want) > 1e-3 {
			t.Fatalf("sample %d: delayed output %.6f, want %.6f", i, y, want)
		}
	}
}

// TestStreamFIRPushMatchesWrapLoop: Push must return, bit for bit, what
// a per-tap wrapping loop over the ring returns, at every ring position.
func TestStreamFIRPushMatchesWrapLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 3, 31, 95} {
		h := make([]float64, m)
		for j := range h {
			h[j] = rng.NormFloat64()
		}
		f, err := NewStreamFIR(h)
		if err != nil {
			t.Fatal(err)
		}
		ring := make([]float64, m)
		pos := 0
		wrapLoop := func(x float64) float64 {
			ring[pos] = x
			var acc float64
			k := pos
			for j := 0; j < m; j++ {
				acc += h[j] * ring[k]
				k--
				if k < 0 {
					k = m - 1
				}
			}
			pos = (pos + 1) % m
			return acc
		}
		for n := 0; n < 3*m+7; n++ {
			x := rng.NormFloat64() * 100
			got, want := f.Push(x), wrapLoop(x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d taps, sample %d: Push %.17g, wrap loop %.17g", m, n, got, want)
			}
		}
	}
}

// TestStreamFIRPushBlockMatchesPush: PushBlock must return, bit for
// bit, what per-sample Push returns, for every block size from 1 to
// past two compactions, starting at every position in the input
// buffer's compaction cycle, with Rebase between blocks.
func TestStreamFIRPushBlockMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{1, 2, 3, 5, 95} {
		h := make([]float64, m)
		for j := range h {
			h[j] = rng.NormFloat64()
		}
		for start := 0; start <= BlockLen; start++ {
			for size := 1; size <= 2*BlockLen+1; size++ {
				ref, _ := NewStreamFIR(h)
				blk, _ := NewStreamFIR(h)
				for i := 0; i < start; i++ {
					x := rng.NormFloat64()
					ref.Push(x)
					blk.Push(x)
				}
				xs := make([]float64, size)
				for round := 0; round < 5; round++ {
					want := make([]float64, size)
					for i := range xs {
						xs[i] = rng.NormFloat64() * 100
						want[i] = ref.Push(xs[i])
					}
					blk.PushBlock(xs)
					for i := range xs {
						if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%d taps, start %d, block %d, round %d, sample %d: PushBlock %.17g, Push %.17g",
								m, start, size, round, i, xs[i], want[i])
						}
					}
					c := rng.NormFloat64()
					ref.Rebase(c)
					blk.Rebase(c)
				}
			}
		}
	}
}

// TestStreamBandPassPushBlockMatchesPush: the band-pass's PushBlock
// must return Push's outputs bit for bit at every block size.
func TestStreamBandPassPushBlockMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for size := 1; size <= 2*BlockLen+1; size++ {
		ref, err := NewStreamBandPass(16, 0.05, 0.67)
		if err != nil {
			t.Fatal(err)
		}
		blk := ref.Fresh()
		xs := make([]float64, size)
		for n := 0; n < 400; n += size {
			want := make([]float64, size)
			for i := range xs {
				xs[i] = 3 + rng.NormFloat64() + 0.01*float64(n+i)
				want[i] = ref.Push(xs[i])
			}
			blk.PushBlock(xs)
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
					t.Fatalf("block %d, sample %d: PushBlock %.17g, Push %.17g", size, n+i, xs[i], want[i])
				}
			}
			if n%3 == 0 {
				ref.Rebase(1.5)
				blk.Rebase(1.5)
			}
		}
	}
}

// BenchmarkStreamBandPassBlock pushes the default band-pass (16 Hz
// bins, 0.05–0.67 Hz, 95 taps) one sample at a time and in blocks of
// BlockLen, as the streaming tick does, and reports ns per sample.
func BenchmarkStreamBandPassBlock(b *testing.B) {
	for _, size := range []int{1, BlockLen} {
		b.Run(fmt.Sprintf("block=%d", size), func(b *testing.B) {
			bp, err := NewStreamBandPass(16, 0.05, 0.67)
			if err != nil {
				b.Fatal(err)
			}
			xs := make([]float64, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range xs {
					xs[j] = float64(i*size+j) * 1e-3
				}
				bp.PushBlock(xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
		})
	}
}

// TestStreamBandPass: on an offset + drift + tone input, the settled
// output must follow the designed response at the tone — the
// low-pass's linear phase (Delay()) and amplitude times the
// Butterworth high-pass's |H| and ∠H — while DC and drift are
// rejected. The response is computed here from the analog prototype
// s²/(s² + √2·ωc·s + ωc²) under the bilinear map, not from the
// filter's coefficients.
func TestStreamBandPass(t *testing.T) {
	rate, lo, hi := 16.0, 0.05, 0.67
	bp, err := NewStreamBandPass(rate, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	d := bp.Delay()
	warm := bp.Warmup()
	if d != 47 || warm > 300 {
		t.Errorf("default band: Delay() = %d, Warmup() = %d; want 47 and at most 300", d, warm)
	}
	fc := 0.25 // breathing-band tone
	w := 2 * math.Pi * fc / rate
	// Low-pass: symmetric taps, so Σh·e^(−jwk) = A·e^(−jwd) with A real.
	h, _ := FIRLowPass(int(4*rate/hi)|1, rate, hi)
	var amp float64
	for k, v := range h {
		amp += v * math.Cos(w*float64(k-d))
	}
	warp := func(f float64) float64 { return 2 * rate * math.Tan(math.Pi*f/rate) }
	s, wc := complex(0, warp(fc)), warp(lo)
	hp := s * s / (s*s + complex(math.Sqrt2*wc, 0)*s + complex(wc*wc, 0))
	gain, lead := amp*cmplx.Abs(hp), cmplx.Phase(hp)
	n := warm + 1200
	var worst float64
	for i := 0; i < n; i++ {
		x := 5 + 0.02*float64(i) + math.Sin(w*float64(i))
		y := bp.Push(x)
		if i < warm+d {
			continue
		}
		want := gain * math.Sin(w*float64(i-d)+lead)
		if e := math.Abs(y - want); e > worst {
			worst = e
		}
	}
	if worst > 0.1 {
		t.Errorf("band-pass error %.4f against the designed response (gain %.3f, lead %.1f°) on offset+drift+tone input", worst, gain, lead*180/math.Pi)
	}
}

// TestStreamBandPassFresh: a band-pass from Fresh must push exactly the
// outputs of a newly designed one, whatever state the band-pass it
// came from holds, and pushing it must leave that one untouched.
func TestStreamBandPassFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tmpl, err := NewStreamBandPass(16, 0.05, 0.67)
	if err != nil {
		t.Fatal(err)
	}
	twin, _ := NewStreamBandPass(16, 0.05, 0.67)
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64()
		tmpl.Push(x)
		twin.Push(x)
	}
	want, _ := NewStreamBandPass(16, 0.05, 0.67)
	fresh := tmpl.Fresh()
	if fresh.Delay() != want.Delay() || fresh.Warmup() != want.Warmup() || fresh.Settle() != want.Settle() {
		t.Fatalf("Fresh: delay/warmup/settle %d/%d/%d, designed %d/%d/%d",
			fresh.Delay(), fresh.Warmup(), fresh.Settle(), want.Delay(), want.Warmup(), want.Settle())
	}
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64() + 0.01*float64(i)
		if g, w := fresh.Push(x), want.Push(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("push %d: Fresh gives %v, a new design %v", i, g, w)
		}
	}
	if g, w := tmpl.Push(1), twin.Push(1); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("pushing the fresh band-pass moved the original: %v, want %v", g, w)
	}
}

// TestStreamBandPassRebase: after warmup, Rebase must not change
// subsequent outputs (beyond float rounding).
func TestStreamBandPassRebase(t *testing.T) {
	rate := 16.0
	mk := func() *StreamBandPass {
		bp, err := NewStreamBandPass(rate, 0.05, 0.67)
		if err != nil {
			t.Fatal(err)
		}
		return bp
	}
	a, b := mk(), mk()
	warm := a.Warmup()
	x := func(i int) float64 {
		return 3 + math.Sin(2*math.Pi*0.2*float64(i)/rate) + 0.3*math.Cos(2*math.Pi*0.4*float64(i)/rate)
	}
	i := 0
	for ; i < warm+100; i++ {
		a.Push(x(i))
		b.Push(x(i))
	}
	b.Rebase(123.456)
	for ; i < warm+600; i++ {
		ya, yb := a.Push(x(i)), b.Push(x(i)-123.456)
		if math.Abs(ya-yb) > 1e-9 {
			t.Fatalf("sample %d: rebased output %.12g, original %.12g", i, yb, ya)
		}
	}
}

// TestCrossingTrackerMatchesBatch: feeding random band-limited series
// sample-by-sample must reproduce ZeroCrossings exactly, including
// interpolation and minGap hysteresis.
func TestCrossingTrackerMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 50 + rng.Intn(400)
		rate := 4 + 28*rng.Float64()
		t0 := rng.Float64() * 10
		minGap := rng.Float64() * 0.5
		x := make([]float64, n)
		phase := rng.Float64() * 2 * math.Pi
		f := 0.1 + rng.Float64()
		for i := range x {
			x[i] = math.Sin(2*math.Pi*f*float64(i)/rate+phase) + 0.3*rng.NormFloat64()
			if rng.Intn(20) == 0 {
				x[i] = 0 // exercise exact-zero handling
			}
		}
		want := ZeroCrossings(x, t0, rate, minGap)
		tr := NewCrossingTracker(minGap)
		var got []ZeroCrossing
		for i, v := range x {
			if zc, ok := tr.Push(t0+float64(i)/rate, v); ok {
				got = append(got, zc)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: tracker found %d crossings, batch %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].T-want[i].T) > 1e-9 || got[i].Rising != want[i].Rising {
				t.Fatalf("trial %d crossing %d: tracker %+v, batch %+v", trial, i, got[i], want[i])
			}
		}
	}
}
