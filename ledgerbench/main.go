// Command ledgerbench is the repository's end-to-end benchmark: it
// drives the live pipeline from the LLRP wire to the per-user rate
// update — session or fleet ingress, monitor, stage engines, collector
// — with load from a separate generator process, checks the outputs
// against the synthetic truth, and prints every metric by name with
// its unit. A traced run adds per-layer numbers from the program's
// own obs.Tracer and public metrics and from a single-threaded layer
// replay over the same corpus. BENCHMARK.json at the repository root
// lists the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash ledgerbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/obs"
	"tagbreathe/internal/sim"
)

// setupProbes is how many set-ups an untraced run times for setup_s.
const setupProbes = 101

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ok, err := benchMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func benchMain(args []string, out io.Writer) (bool, error) {
	o, err := parseOptions(args)
	if err != nil {
		return false, err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return false, err
	}
	return run(w, o, out)
}

// options are one benchmark run's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 8, "how long one load phase measures")
	trace := fs.Int("trace", 0, "1: print the per-layer metrics from a traced run and the layer replay")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	return o, nil
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run runs one workload and writes its metrics to out, the result
// object last. It returns whether the correctness gate held.
func run(w workload, o options, out io.Writer) (bool, error) {
	if len(w.readers) > runtime.NumCPU() {
		return false, fmt.Errorf("workload %s needs %d reader connections, more than the %d CPUs", w.name, len(w.readers), runtime.NumCPU())
	}
	probes := setupProbes
	if o.trace {
		probes = 0
	}
	gp, err := startGen(w, o.seed, o.seconds, probes)
	if err != nil {
		return false, err
	}
	defer gp.close()

	res := result{Correct: true, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	var problems []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			res.Correct = false
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}

	var setups []time.Duration
	for i := 0; i < probes; i++ {
		d, err := setupProbe(w, gp)
		if err != nil {
			return false, err
		}
		setups = append(setups, d)
	}
	plain, err := runLoad(w, gp, false, o.seconds)
	if err != nil {
		return false, err
	}
	sc := score(w, o.seed, plain)
	res.Attempted = plain.offered
	res.Failed = plain.dropped + plain.shed
	check(plain.processed+plain.dropped+plain.shed == plain.offered,
		"accounting: %d processed + %d dropped + %d shed != %d offered", plain.processed, plain.dropped, plain.shed, plain.offered)
	check(plain.reconnects == 0, "ingress reconnected %d times", plain.reconnects)
	check(sc.unexpectedMisses == 0, "%d users outside the known defect have no update within ±1 bpm of truth", sc.unexpectedMisses)
	if w.paced {
		check(plain.genLateP99 <= w.maxLateP99, "generator ran late: p99 %v > %v; latency is not valid", plain.genLateP99, w.maxLateP99)
	}

	cpuPerReport := plain.cpu.Seconds() * 1e6 / float64(plain.offered)
	if !o.trace {
		put("reports_per_s", median(plain.windowRate), "1/s")
		put("cpu_us_per_report", median(plain.windowCPU), "us")
		put("update_latency_p50_ms", windowQuantile(sc.latencies, 0.50)*1e3, "ms")
		put("first_update_s", sc.firstUpdate, "s")
		put("rate_accuracy", sc.accuracy, "ratio")
		put("user_ok_frac", sc.okFrac, "ratio")
		put("report_delivered_frac", float64(plain.processed)/float64(plain.offered), "ratio")
		put("heap_bytes_per_user", float64(plain.heapDelta)/float64(w.users), "bytes")
		put("setup_s", median(durSeconds(setups)), "s")
	} else {
		traced, err := runLoad(w, gp, true, o.seconds)
		if err != nil {
			return false, err
		}
		tsc := score(w, o.seed, traced)
		check(traced.processed+traced.dropped+traced.shed == traced.offered,
			"traced accounting: %d processed + %d dropped + %d shed != %d offered", traced.processed, traced.dropped, traced.shed, traced.offered)
		check(tsc.unexpectedMisses == 0, "traced run: %d users outside the known defect have no update within ±1 bpm of truth", tsc.unexpectedMisses)
		lc, err := replayLayers(w, o.seed)
		if err != nil {
			return false, err
		}
		// The tail tracks the host's vCPU pauses more than the program
		// (see ledgerbench/README.md), so it carries no bound and is
		// printed with the per-layer metrics, from the untraced run.
		put("update_latency_p95_ms", windowQuantile(sc.latencies, 0.95)*1e3, "ms")
		perLayer(put, plain, traced, lc, cpuPerReport)
	}

	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "workload %s seed %d: %d reports offered, %d users, %d latency samples\n",
		w.name, o.seed, plain.offered, w.users, len(sc.latencies))
	for _, n := range names {
		fmt.Fprintf(out, "%-44s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(enc))
	return res.Correct, gp.close()
}

// perLayer adds the traced-run and layer-replay metrics.
func perLayer(put func(string, float64, string), plain, traced *loadResult, lc layerCosts, cpuPerReport float64) {
	n := float64(traced.offered)
	put("llrp.decode_ns_per_report", lc.decodeNs, "ns")
	put("llrp.decode_allocs_per_report", lc.decodeAllocs, "count")
	put("core.engine_feed_ns_per_report", lc.feedNs, "ns")
	put("core.engine_tick_us_per_user_tick", lc.tickUs, "us")
	put("core.engine_tick_allocs_per_user_tick", lc.tickAllocs, "count")
	put("sigproc.bandpass_us_per_call", lc.bandpassUs, "us")
	// Reconciliation: what the replayed layers explain of the untraced
	// run's CPU per report, and the residue no single call owns.
	tickNsPerReport := lc.tickUs * 1e3 * float64(plain.userTicks) / float64(plain.offered)
	put("glue_ns_per_report", cpuPerReport*1e3-lc.decodeNs-lc.feedNs-tickNsPerReport, "ns")
	put("replay.tick_share_of_cpu", tickNsPerReport/(cpuPerReport*1e3), "ratio")

	c := traced.cons
	put("session.recv_wait_ns_per_report", float64(c.recvWait.Nanoseconds())/n, "ns")
	put("monitor.ingest_block_ns_per_report", float64(c.ingestTime.Nanoseconds())/n, "ns")
	put("monitor.updates_wait_us_per_update", float64(c.updateWait.Nanoseconds())/1e3/math.Max(1, float64(c.updates.Load())), "us")
	mm := traced.mm
	hw := 0.0
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		hw = math.Max(hw, mm.WorkerQueueHighWater.With(core.WorkerLabel(i)).Value())
	}
	put("monitor.queue_high_water", hw, "count")
	put("monitor.tick_p50_us", mm.ShardTickSeconds.Quantile(0.50)*1e6, "us")
	put("monitor.tick_p99_us", mm.ShardTickSeconds.Quantile(0.99)*1e6, "us")
	put("monitor.tick_to_emit_p50_ms", mm.TickLatency.Quantile(0.50)*1e3, "ms")
	for s := obs.StageForward; s < obs.NumStages; s++ {
		put("trace.stage_"+s.String()+"_p50_us", traced.tracer.StageHistogram(s).Quantile(0.50)*1e6, "us")
	}
	put("fleet.merged_queue_high_water", traced.fleetHW, "count")
	put("fleet.shed_reports", float64(traced.shed), "count")
	put("gen.late_p99_ms", traced.genLateP99.Seconds()*1e3, "ms")
	put("gen.busy_ns_per_report", float64(traced.genCPU.Nanoseconds())/n, "ns")
	tracedCPU := traced.cpu.Seconds() * 1e6 / n
	put("trace.overhead_frac", tracedCPU/cpuPerReport-1, "ratio")
}

// scores is the correctness and quality view of one load phase.
type scores struct {
	accuracy, okFrac float64
	// unexpectedMisses counts users without an update within ±1 bpm
	// of truth that the known defect does not explain.
	unexpectedMisses int
	firstUpdate      float64
	// latencies has one sample (seconds) per tick with an update, in
	// tick order.
	latencies []float64
}

// score grades every user's last update against the synthetic truth
// with core.Accuracy (Eq. 8), and derives the update latencies.
func score(w workload, seed int64, r *loadResult) scores {
	return scoreAgainst(w, seed, r, truthBPM)
}

func scoreAgainst(w workload, seed int64, r *loadResult, truth func(int) float64) scores {
	var s scores
	syn, _ := sim.NewSynth(w.synthConfig(0, seed)) // the config NewSynth already accepted in the generator
	var firsts []float64
	ok := 0
	for i := 0; i < w.users; i++ {
		uid := uint64(i + 1)
		want := truth(i)
		u, seen := r.cons.last[uid]
		if seen {
			s.accuracy += core.Accuracy(u.RateBPM, want)
		}
		if seen && math.Abs(u.RateBPM-want) <= 1 {
			ok++
		} else if !w.knownDefect(i) {
			s.unexpectedMisses++
		}
		first := math.Inf(1)
		if t, seen := r.cons.first[uid]; seen {
			firstReport := syn.ReportAt(0, i, 0).Timestamp.Truncate(time.Microsecond)
			first = (t - firstReport).Seconds()
		}
		firsts = append(firsts, first)
	}
	s.accuracy /= float64(w.users)
	s.okFrac = float64(ok) / float64(w.users)
	s.firstUpdate = median(firsts)

	for _, t := range r.cons.ticks {
		if t.flush {
			continue
		}
		if w.paced {
			// Due: the flush scheduled to carry the frame holding the
			// tick-closing report, earliest reader first.
			due := time.Time{}
			for ri, sc := range r.scheds {
				slot := flushSlot(sc.completedUs(t.asOf.Microseconds()), w.speed)
				d := r.wall0[ri].Add(time.Duration(slot) * flushEvery)
				if due.IsZero() || d.Before(due) {
					due = d
				}
			}
			s.latencies = append(s.latencies, t.last.Sub(due).Seconds())
		} else if at, ok := r.cons.closeRecv[t.asOf]; ok {
			s.latencies = append(s.latencies, t.last.Sub(at).Seconds())
		}
	}
	return s
}

// latencyWindow is the sample count of one latency window: enough
// that a window's p95 has ten samples beyond it.
const latencyWindow = 200

// windowQuantile splits time-ordered samples into consecutive windows
// of at least latencyWindow samples and returns the median over
// windows of each window's q-quantile: a stall of the machine during
// part of a run moves one window, not the run's figure.
func windowQuantile(xs []float64, q float64) float64 {
	n := max(1, len(xs)/latencyWindow)
	per := make([]float64, n)
	for i := range per {
		w := append([]float64(nil), xs[i*len(xs)/n:(i+1)*len(xs)/n]...)
		sort.Float64s(w)
		per[i] = quantile(w, q)
	}
	return median(per)
}

// quantile returns the q-quantile of sorted xs by linear
// interpolation, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
