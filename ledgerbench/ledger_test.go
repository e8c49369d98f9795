package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the generator process too:
// startGen re-executes the running binary with "gen" first.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// scaled shrinks a workload to 10 users, and a paced one to 200 stream
// seconds per wall second, so that a 1.5 s load phase still yields
// over 200 ticks with an update.
func scaled(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.users, w.replayUsers = 10, 10
	if w.paced {
		w.speed = 200
	}
	return w
}

const scaledSeconds = 1.5

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryWorkloadPrintsItsMetrics runs every workload of
// BENCHMARK.json scaled down, untraced and traced, and checks that the
// result line carries exactly the metrics BENCHMARK.json names, each
// with its unit, and that the correctness gate held.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		w := scaled(t, wl.Name)
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				var out bytes.Buffer
				ok, err := run(w, options{workload: wl.Name, seed: 3, seconds: scaledSeconds, trace: trace}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if !ok || !res.Correct {
					t.Fatalf("correctness gate failed:\n%s", out.String())
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !strings.Contains(out.String(), m.Name):
						t.Errorf("metric %s not printed", m.Name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestGateTripsOnPerturbedTruth scores one real run twice: against the
// synthetic truth every user passes (outside the known defect); with
// the truth moved by 3 bpm none does.
func TestGateTripsOnPerturbedTruth(t *testing.T) {
	w := scaled(t, "tick_fft")
	gp, err := startGen(w, 5, scaledSeconds, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer gp.close()
	r, err := runLoad(w, gp, false, scaledSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if s := score(w, 5, r); s.unexpectedMisses != 0 || s.okFrac != 1 {
		t.Fatalf("true truth: %d unexpected misses, ok fraction %v", s.unexpectedMisses, s.okFrac)
	}
	off := scoreAgainst(w, 5, r, func(i int) float64 { return truthBPM(i) + 3 })
	if off.unexpectedMisses != w.users || off.okFrac != 0 {
		t.Fatalf("perturbed truth: %d unexpected misses of %d users, ok fraction %v", off.unexpectedMisses, w.users, off.okFrac)
	}
}

// TestReplayStreamingTickAllocFree pins the layer replay against
// BenchmarkMonitorTickAllocs: a steady streaming user-tick on one
// reader allocates nothing.
func TestReplayStreamingTickAllocFree(t *testing.T) {
	w := scaled(t, "ingest_stream")
	w.replayUsers = 20
	lc, err := replayLayers(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lc.userTicks == 0 {
		t.Fatal("replay measured no steady ticks")
	}
	if lc.tickAllocs != 0 {
		t.Errorf("streaming tick: %v allocs per user-tick over %d user-ticks, want 0", lc.tickAllocs, lc.userTicks)
	}
}
