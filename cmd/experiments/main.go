// Command experiments regenerates every table and figure of the
// TagBreathe paper's characterization and evaluation sections and
// prints measured values side by side with the paper's reported ones.
//
// Usage:
//
//	experiments [-trials N] [-duration D] [-seed S] [-only fig12,fig13,...]
//
// With no -only flag every experiment runs. Expect a few seconds per
// figure at the default 10 trials; the paper's 100-trial averages can
// be reproduced with -trials 100.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tagbreathe/internal/experiments"
	"tagbreathe/internal/soak"
)

func main() {
	var (
		trials   = flag.Int("trials", 10, "repetitions per experiment point")
		duration = flag.Duration("duration", 2*time.Minute, "monitored duration per trial")
		seed     = flag.Int64("seed", 1, "base random seed")
		only     = flag.String("only", "", "comma-separated experiment list (fig2-8,table1,fig12,fig13,fig14,fig15,fig16,fig17,radar,ablation,filter,window,channels,select,sessions,chaos,soak,heart,motion,tagmodels,los,txpower,tags)")
		csvDir   = flag.String("csvdir", "", "also write plot-ready CSV data files for each figure into this directory")
	)
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	csvOut = *csvDir

	opt := experiments.Options{Trials: *trials, Duration: *duration, Seed: *seed}
	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	if err := run(opt, enabled); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// csvOut, when non-empty, receives plot-ready CSV files per figure.
var csvOut string

// writeCSV drops a figure's data as a CSV file for external plotting.
func writeCSV(name string, header []string, rows [][]string) {
	if csvOut == "" {
		return
	}
	f, err := os.Create(filepath.Join(csvOut, name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: write %s: %v\n", name, err)
		return
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	_ = w.Write(header)
	for _, r := range rows {
		_ = w.Write(r)
	}
}

// accuracyCSV renders AccuracyPoints as CSV rows.
func accuracyCSV(name string, points []experiments.AccuracyPoint) {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		label := p.Label
		if label == "" {
			label = strconv.FormatFloat(p.X, 'g', -1, 64)
		}
		rows = append(rows, []string{
			label,
			strconv.FormatFloat(p.Accuracy, 'f', 4, 64),
			strconv.FormatFloat(p.MeanAbsErrBPM, 'f', 3, 64),
			strconv.FormatFloat(p.DetectionRate(), 'f', 3, 64),
			strconv.FormatFloat(p.PaperAccuracy, 'f', 3, 64),
		})
	}
	writeCSV(name, []string{"x", "accuracy", "mean_abs_err_bpm", "detected", "paper_accuracy"}, rows)
}

// traceCSV renders a characterization trace as CSV.
func traceCSV(name string, tr experiments.Trace) {
	rows := make([][]string, 0, len(tr.T))
	for i := range tr.T {
		rows = append(rows, []string{
			strconv.FormatFloat(tr.T[i], 'f', 6, 64),
			strconv.FormatFloat(tr.V[i], 'g', -1, 64),
		})
	}
	writeCSV(name, []string{"t_s", tr.Name}, rows)
}

func run(opt experiments.Options, enabled func(string) bool) error {
	if enabled("table1") {
		fmt.Println("== Table I: system parameters and defaults ==")
		for _, r := range experiments.TableI() {
			fmt.Printf("  %-18s %-28s default %s\n", r.Parameter, r.Range, r.Default)
		}
		fmt.Println()
	}

	if enabled("fig2-8") {
		ch, err := experiments.RunCharacterization(opt.Seed)
		if err != nil {
			return err
		}
		fmt.Println("== Figs. 2-8: low-level data characterization (1 tag, 2 m, 25 s) ==")
		fmt.Printf("  read rate: %.1f Hz (paper: ~64 Hz)\n", ch.ReadRateHz)
		fmt.Printf("  true rate %.2f bpm, extracted %.2f bpm, crossings %d\n",
			ch.TrueRateBPM, ch.EstimatedRateBPM, len(ch.Crossings))
		var sum float64
		for _, v := range ch.RealtimeBPM {
			sum += v
		}
		fmt.Printf("  Eq. 5 realtime rate (M = 7): %d estimates, mean %.2f bpm\n",
			len(ch.RealtimeBPM), sum/float64(max(len(ch.RealtimeBPM), 1)))
		peakF, peakM := 0.0, 0.0
		for i, f := range ch.SpectrumFreqs {
			if f >= 0.05 && f <= 0.67 && ch.SpectrumMags[i] > peakM {
				peakF, peakM = f, ch.SpectrumMags[i]
			}
		}
		fmt.Printf("  Fig. 7 spectral peak: %.3f Hz = %.1f bpm\n", peakF, peakF*60)
		fmt.Println("  Fig. 2 (raw RSSI, dBm):")
		fmt.Println(asciiPlot(ch.RSSI.T, ch.RSSI.V, 72, 10))
		fmt.Println("  Fig. 4 (raw phase, rad — note hop discontinuities):")
		fmt.Println(asciiPlot(ch.Phase.T, ch.Phase.V, 72, 10))
		fmt.Println("  Fig. 5 (channel index):")
		fmt.Println(asciiPlot(ch.Channel.T, ch.Channel.V, 72, 10))
		fmt.Println("  Fig. 6 (normalized displacement):")
		fmt.Println(asciiPlot(ch.Displacement.T, ch.Displacement.V, 72, 10))
		fmt.Println("  Fig. 8 (extracted breathing signal):")
		fmt.Println(asciiPlot(ch.Breath.T, ch.Breath.V, 72, 10))
		traceCSV("fig02_rssi.csv", ch.RSSI)
		traceCSV("fig03_doppler.csv", ch.Doppler)
		traceCSV("fig04_phase.csv", ch.Phase)
		traceCSV("fig05_channel.csv", ch.Channel)
		traceCSV("fig06_displacement.csv", ch.Displacement)
		traceCSV("fig08_breath.csv", ch.Breath)
		specRows := make([][]string, 0, len(ch.SpectrumFreqs))
		for i := range ch.SpectrumFreqs {
			specRows = append(specRows, []string{
				strconv.FormatFloat(ch.SpectrumFreqs[i], 'f', 5, 64),
				strconv.FormatFloat(ch.SpectrumMags[i], 'g', -1, 64),
			})
		}
		writeCSV("fig07_fft.csv", []string{"freq_hz", "magnitude"}, specRows)
	}

	type accuracyFig struct {
		key, title, xname string
		run               func(experiments.Options) ([]experiments.AccuracyPoint, error)
	}
	figs := []accuracyFig{
		{"fig12", "Fig. 12: accuracy vs distance (paper: 98.0% at 1 m, >90% to 6 m)", "m", experiments.Fig12Distance},
		{"fig13", "Fig. 13: accuracy vs number of users (paper: ~95% for 1-4)", "users", experiments.Fig13Users},
		{"fig14", "Fig. 14: accuracy vs contending tags (paper: 91.0% at 30)", "tags", experiments.Fig14Contention},
		{"fig16", "Fig. 16: accuracy vs orientation with LOS (paper: 90% -> 85%)", "deg", experiments.Fig16OrientationAccuracy},
		{"fig17", "Fig. 17: accuracy vs posture (paper: >90% all)", "", experiments.Fig17Posture},
		{"txpower", "Extension: accuracy vs Tx power (Table I range)", "dBm", experiments.TxPowerSweep},
		{"tags", "Extension: accuracy vs tags per user (Table I range)", "tags", experiments.TagsPerUserSweep},
	}
	for _, f := range figs {
		if !enabled(f.key) {
			continue
		}
		points, err := f.run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", f.key, err)
		}
		accuracyCSV(f.key+".csv", points)
		fmt.Printf("== %s ==\n", f.title)
		for _, p := range points {
			label := p.Label
			if label == "" {
				label = fmt.Sprintf("%g %s", p.X, f.xname)
			}
			line := fmt.Sprintf("  %-10s accuracy %5.1f%%  |err| %.2f bpm  detected %3.0f%%",
				label, p.Accuracy*100, p.MeanAbsErrBPM, p.DetectionRate()*100)
			if p.PaperAccuracy > 0 {
				line += fmt.Sprintf("  (paper ~%.0f%%)", p.PaperAccuracy*100)
			}
			fmt.Println(line)
		}
		fmt.Println()
	}

	if enabled("fig15") {
		points, err := experiments.Fig15Orientation(opt)
		if err != nil {
			return err
		}
		rows := make([][]string, 0, len(points))
		for _, p := range points {
			rows = append(rows, []string{
				strconv.FormatFloat(p.OrientationDeg, 'f', 0, 64),
				strconv.FormatFloat(p.ReadRateHz, 'f', 2, 64),
				strconv.FormatFloat(p.MeanRSSI, 'f', 2, 64),
			})
		}
		writeCSV("fig15.csv", []string{"orientation_deg", "read_rate_hz", "mean_rssi_dbm"}, rows)
		fmt.Println("== Fig. 15: read rate and RSSI vs orientation (paper: 50 Hz -> 10 Hz -> none past 90°) ==")
		for _, p := range points {
			fmt.Printf("  %3.0f°  read rate %5.1f Hz  mean RSSI %6.1f dBm  (paper rate ~%.0f Hz)\n",
				p.OrientationDeg, p.ReadRateHz, p.MeanRSSI, p.PaperReadRateHz)
		}
		fmt.Println()
	}

	if enabled("radar") {
		points, err := experiments.RadarComparison(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Motivation: TagBreathe vs CW Doppler radar with multiple users ==")
		for _, p := range points {
			fmt.Printf("  %d user(s): tagbreathe %5.1f%%   radar %5.1f%%\n",
				p.Users, p.TagBreatheAccuracy*100, p.RadarAccuracy*100)
		}
		fmt.Println()
	}

	if enabled("ablation") {
		points, err := experiments.FusionAblation(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Ablation (§IV-C): estimator variants on a weak-signal scenario (5 m, 10 contending tags) ==")
		for _, p := range points {
			fmt.Printf("  %-11s accuracy %5.1f%%  |err| %5.2f bpm  detected %3.0f%%\n",
				p.Estimator, p.Accuracy*100, p.MeanAbsErrBPM, p.Detected*100)
		}
		fmt.Println()
	}

	if enabled("window") {
		points, err := experiments.WindowStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== §IV-B pitfall: zero-crossing vs FFT-peak across window lengths ==")
		for _, p := range points {
			fmt.Printf("  %5.0f s window: zero-crossing %5.1f%%   fft-peak %5.1f%%   (fft resolution %.1f bpm)\n",
				p.WindowSec, p.ZeroCrossingAccuracy*100, p.FFTPeakAccuracy*100, p.FFTResolutionBPM)
		}
		fmt.Println()
	}

	if enabled("channels") {
		points, err := experiments.ChannelStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Ablation (§IV-A.3): per-channel grouping vs naive differencing across channel plans ==")
		for _, p := range points {
			fmt.Printf("  %-10s grouped %5.1f%%   naive %5.1f%%\n",
				p.Plan, p.Grouped*100, p.Naive*100)
		}
		fmt.Println("  (the FCC plan's ~10 s channel revisit starves per-channel streams; see DESIGN.md)")
		fmt.Println()
	}

	if enabled("select") {
		points, err := experiments.SelectStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: Gen2 Select filter under contention (Fig. 14 countermeasure) ==")
		for _, p := range points {
			fmt.Printf("  %2d contenders: plain %5.1f%% (%.0f Hz)   selected %5.1f%% (%.0f Hz)\n",
				p.ContendingTags, p.Plain*100, p.PlainRate, p.Selected*100, p.SelectedRate)
		}
		fmt.Println()
	}

	if enabled("heart") {
		points, err := experiments.HeartStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: cardiac sensing vs reader phase-noise floor (1 m) ==")
		for _, p := range points {
			fmt.Printf("  floor %.3f rad: |err| %5.1f bpm   prominence %4.1f   detected %3.0f%%\n",
				p.PhaseFloorRad, p.MeanAbsErrBPM, p.MeanProminence, p.Detected*100)
		}
		fmt.Println("  (prominence ≈2 is the noise-only level; the commodity 0.03 rad floor cannot see the apex beat)")
		fmt.Println()
	}

	if enabled("motion") {
		points, err := experiments.MotionStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: motion-artifact rejection under postural fidgeting ==")
		for _, p := range points {
			label := "still"
			if p.FidgetEverySec > 0 {
				label = fmt.Sprintf("every %.0fs", p.FidgetEverySec)
			}
			fmt.Printf("  fidget %-10s plain %5.1f%%   rejected %5.1f%%\n",
				label, p.Plain*100, p.Rejected*100)
		}
		fmt.Println()
	}

	if enabled("tagmodels") {
		points, err := experiments.TagModelStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== §V claim: tag products are comparable (Alien 9640/9652, Impinj H47) ==")
		for _, p := range points {
			fmt.Printf("  %-11s accuracy %5.1f%%   read rate %.0f Hz\n", p.Model, p.Accuracy*100, p.ReadRateHz)
		}
		fmt.Println()
	}

	if enabled("los") {
		points, err := experiments.LOSStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Table I: propagation path with/without LOS ==")
		for _, p := range points {
			fmt.Printf("  %-12s accuracy %5.1f%%   read rate %.0f Hz\n", p.Label, p.Accuracy*100, p.ReadRateHz)
		}
		fmt.Println()
	}

	if enabled("sessions") {
		points, err := experiments.SessionStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: Gen2 session semantics vs continuous monitoring ==")
		for _, p := range points {
			fmt.Printf("  %-10s read rate %6.1f Hz   accuracy %5.1f%%   detected %3.0f%%\n",
				p.Config, p.ReadRateHz, p.Accuracy*100, p.Detected*100)
		}
		fmt.Println("  (persistent sessions without dual-target silently stop re-reading tags)")
		fmt.Println()
	}

	if enabled("chaos") {
		points, err := experiments.ChaosStudy(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: transport resilience under scripted faults ==")
		for _, p := range points {
			fmt.Printf("  %-20s faults %d  conns %2d  reconnects %2d  watchdog %d  updates %3d  max gap %5.1f s  accuracy %5.1f%%\n",
				p.Script, p.Faults, p.Conns, p.Reconnects, p.WatchdogTrips, p.Updates, p.MaxGapS, p.Accuracy*100)
		}
		fmt.Println("  (each script replays a seeded ward run through a fault-injection proxy at 60x)")
		fmt.Println()
	}

	if enabled("soak") {
		prof := soak.Compressed()
		res, err := soak.Run(context.Background(), prof)
		if err != nil {
			return fmt.Errorf("soak: %w", err)
		}
		fmt.Println("== Extension: graceful degradation under a compressed chaos soak ==")
		fmt.Printf("  %s profile: %.0f s stream in %.0f s wall, %d readers looping jittered faults\n",
			res.Profile, res.StreamSeconds, res.WallSeconds, prof.Readers)
		fmt.Printf("  ladder: peak stretch %d, skipped ticks %d, degraded workers at end %d\n",
			res.PeakStretch, res.SkippedTicks, res.DegradedAtEnd)
		fmt.Printf("  shed by class: monitor %v, fleet %v\n", res.MonitorShed, res.FleetShed)
		fmt.Printf("  transport: %d conns, %d reconnects; heap %d -> %d bytes\n",
			res.Conns, res.Reconnects, res.HeapEarlyBytes, res.HeapLateBytes)
		for _, u := range res.Users {
			fmt.Printf("  user %d: truth %.1f final %.2f bpm, %d updates, max gap %.1f s, final stretch %d\n",
				u.UserID, u.TruthBPM, u.FinalBPM, u.Updates, u.MaxGapS, u.FinalStretch)
		}
		if v := res.Verify(); len(v) > 0 {
			for _, s := range v {
				fmt.Printf("  VIOLATION: %s\n", s)
			}
		} else {
			fmt.Println("  all graceful-degradation invariants held")
		}
		fmt.Println()
	}

	if enabled("filter") {
		points, err := experiments.FilterAblation(opt)
		if err != nil {
			return err
		}
		fmt.Println("== Ablation (§IV-B): FFT vs FIR low-pass extraction, batch and streaming ==")
		for _, p := range points {
			fmt.Printf("  %-13s accuracy %5.1f%%  |err| %5.2f bpm  detected %3.0f%%\n",
				p.Estimator, p.Accuracy*100, p.MeanAbsErrBPM, p.Detected*100)
		}
		fmt.Println()
	}
	return nil
}

// asciiPlot renders a time series as a small terminal plot, the
// closest a CLI gets to the paper's figures.
func asciiPlot(ts, vs []float64, width, height int) string {
	if len(vs) == 0 || len(ts) != len(vs) {
		return "  (no data)"
	}
	minV, maxV := vs[0], vs[0]
	for _, v := range vs {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV == minV { //tagbreathe:allow floatcmp degenerate plot range; extrema come from the same slice so exact equality is meaningful
		maxV = minV + 1
	}
	t0, t1 := ts[0], ts[len(ts)-1]
	if t1 == t0 { //tagbreathe:allow floatcmp degenerate plot range; extrema come from the same slice so exact equality is meaningful
		t1 = t0 + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i, v := range vs {
		c := int((ts[i] - t0) / (t1 - t0) * float64(width-1))
		r := int((maxV - v) / (maxV - minV) * float64(height-1))
		grid[r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "    %+.3g\n", maxV)
	for _, row := range grid {
		b.WriteString("    |")
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "    %+.3g  [%.1fs .. %.1fs]", minV, t0, t1)
	return b.String()
}
