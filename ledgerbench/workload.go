package main

import (
	"fmt"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/sim"
)

// Stream shape shared by every workload: sim.Synth defaults (3 tags
// per user at 8 Hz, rates 6 + (index mod 25) bpm), the paper's 25 s
// window and 1 s updates.
const (
	window      = 25 * time.Second
	updateEvery = time.Second
	// batch is the ROSpec ReportEveryN the system asks for, the same
	// as cmd/tagbreathe: reports per RO_ACCESS_REPORT frame.
	batch = 32
	// jitterFrac is the read-timing jitter the seed keys (see
	// sim.SynthConfig.JitterFrac).
	jitterFrac = 0.5
	// truthBaseBPM and truthSpread give user index i the true rate
	// truthBaseBPM + i mod truthSpread, the sim.Synth default spread.
	truthBaseBPM = 6
	truthSpread  = 25
)

// readerSpec is one reader's vantage on the users.
type readerSpec struct {
	// name is the fleet reader ID; "" is the unnamed single reader.
	name      string
	rssiDBm   float64
	distanceM float64
}

// workload is one benchmark input set and the system wiring it runs.
type workload struct {
	name    string
	filter  core.FilterMode
	users   int
	readers []readerSpec
	// paced selects an open loop: frames leave on a fixed schedule at
	// speed stream seconds per wall second. Otherwise the loop is
	// closed: the generator writes as fast as the system reads.
	paced bool
	speed float64
	// maxStretch arms the monitor's degradation ladder (0: off, every
	// tick analyzed).
	maxStretch int
	// replayUsers is how many users the layer replay's corpus holds
	// (see replayLayers).
	replayUsers int
	// maxLateP99 bounds the paced generator's send lateness; a run
	// whose generator ran later is invalid as a latency measurement.
	maxLateP99 time.Duration
}

// workloads load disjoint layers; ledgerbench/README.md gives the
// reasons and the layer shares the replay measures for each.
var workloads = []workload{
	{
		name:        "tick_fft",
		filter:      core.FilterFFT,
		users:       30,
		readers:     []readerSpec{{rssiDBm: -50, distanceM: 4}},
		replayUsers: 30,
	},
	{
		name:        "ingest_stream",
		filter:      core.FilterFIRStreaming,
		users:       500,
		readers:     []readerSpec{{rssiDBm: -50, distanceM: 4}},
		replayUsers: 200,
	},
	{
		name:   "fleet_paced",
		filter: core.FilterFIRStreaming,
		users:  25,
		readers: []readerSpec{
			{name: "a", rssiDBm: -50, distanceM: 4},
			{name: "b", rssiDBm: -62, distanceM: 5},
		},
		paced:       true,
		speed:       80,
		maxStretch:  8,
		replayUsers: 25,
		maxLateP99:  10 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// synthConfig is reader ri's generator configuration. Every reader
// reads on the same seeded schedule, so a report's timestamp names the
// same frame on every reader.
func (w workload) synthConfig(ri int, seed int64) sim.SynthConfig {
	r := w.readers[ri]
	return sim.SynthConfig{
		Users:      w.users,
		RSSIdBm:    r.rssiDBm,
		DistanceM:  r.distanceM,
		JitterFrac: jitterFrac,
		Seed:       seed,
	}
}

// truthBPM is the synthetic true rate of user index i.
func truthBPM(i int) float64 { return float64(truthBaseBPM + i%truthSpread) }

// knownDefect reports whether a miss on user index i is the documented
// streaming-mode gap (BENCHMARK.json known_defects): under
// FilterFIRStreaming the 6 bpm users mostly never get an update.
func (w workload) knownDefect(i int) bool {
	return w.filter == core.FilterFIRStreaming && truthBPM(i) == truthBaseBPM
}
