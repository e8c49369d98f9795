package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"tagbreathe/internal/core"
	"tagbreathe/internal/sim"
)

func TestRoundTripSimulatedTrace(t *testing.T) {
	sc := sim.DefaultScenario()
	sc.Duration = 20 * time.Second
	sc.Seed = 5
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteAll(&buf, res.Reports); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res.Reports) {
		t.Fatalf("round trip %d vs %d reports", len(back), len(res.Reports))
	}
	for i := range back {
		a, b := res.Reports[i], back[i]
		if a.EPC != b.EPC || a.AntennaPort != b.AntennaPort || a.ChannelIndex != b.ChannelIndex {
			t.Fatalf("identity mismatch at %d", i)
		}
		if d := (a.Timestamp - b.Timestamp).Abs(); d > time.Microsecond {
			t.Fatalf("timestamp drift %v at %d", d, i)
		}
		if math.Abs(float64(a.Phase-b.Phase)) > 1e-5 {
			t.Fatalf("phase drift at %d", i)
		}
		if math.Abs(float64(a.RSSI-b.RSSI)) > 0.01 {
			t.Fatalf("rssi drift at %d", i)
		}
	}
}

func TestReplayedTraceEstimatesIdentically(t *testing.T) {
	// The development workflow: a pipeline result computed from a
	// replayed trace matches the live result to CSV precision.
	sc := sim.DefaultScenario()
	sc.Duration = time.Minute
	sc.Seed = 6
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	uid := res.UserIDs[0]
	live, err := core.EstimateUser(res.Reports, uid, core.Config{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteAll(&buf, res.Reports); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := core.EstimateUser(replayed, uid, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(live.RateBPM-offline.RateBPM) > 0.05 {
		t.Errorf("live %v vs replayed %v bpm", live.RateBPM, offline.RateBPM)
	}
}

func TestReadAllRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "a,b,c,d,e,f,g,h\n",
		"bad epc": strings.Join(header, ",") + "\n" +
			"1.0,nothex,1,0,920000000,-50,1.0,0.0\n",
		"bad float": strings.Join(header, ",") + "\n" +
			"x,000000000000000000000001,1,0,920000000,-50,1.0,0.0\n",
		"short row": strings.Join(header, ",") + "\n1.0,aa\n",
	}
	for name, input := range cases {
		if _, err := ReadAll(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestReadAllErrorsNameLine(t *testing.T) {
	// A bad row in a long capture must be findable: the error names the
	// physical line of the file, not just "parse error".
	hdr := strings.Join(header, ",")
	good := "1.0,000000000000000000000001,1,0,920000000,-50,1.0,0.0"
	cases := map[string]struct {
		input string
		want  string
	}{
		"malformed row on line 3": {
			input: hdr + "\n" + good + "\n" +
				"nope,000000000000000000000001,1,0,920000000,-50,1.0,0.0\n",
			want: "line 3",
		},
		"short row on line 4": {
			input: hdr + "\n" + good + "\n" + good + "\n1.0,aa\n",
			want:  "line 4",
		},
		"short header": {
			input: "timestamp_s,epc,antenna\n",
			want:  "line 1",
		},
		"wrong header name": {
			input: "timestamp_s,epc,antenna,channel,freq_hz,rssi_dbm,phase_rad,bogus\n",
			want:  "line 1",
		},
	}
	for name, tc := range cases {
		_, err := ReadAll(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: expected error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", name, err, tc.want)
		}
	}
}

// TestReadAllRejectsWhatThePipelineForbids: a trace row must carry a
// report the pipeline accepts, so each class of value it forbids is an
// error naming the row's line.
func TestReadAllRejectsWhatThePipelineForbids(t *testing.T) {
	hdr := strings.Join(header, ",")
	good := "1.0,000000000000000000000001,1,0,920000000,-50,1.0,0.0"
	for _, tc := range []struct {
		name, row, want string
	}{
		{"NaN timestamp", "NaN,000000000000000000000001,1,0,920000000,-50,1.0,0.0", "timestamp: NaN is not finite"},
		{"Inf frequency", "1.0,000000000000000000000001,1,0,+Inf,-50,1.0,0.0", "frequency: +Inf is not finite"},
		{"-Inf rssi", "1.0,000000000000000000000001,1,0,920000000,-Inf,1.0,0.0", "rssi: -Inf is not finite"},
		{"NaN phase", "1.0,000000000000000000000001,1,0,920000000,-50,NaN,0.0", "phase: NaN is not finite"},
		{"Inf doppler", "1.0,000000000000000000000001,1,0,920000000,-50,1.0,Inf", "doppler: +Inf is not finite"},
		{"negative phase", "1.0,000000000000000000000001,1,0,920000000,-50,-0.1,0.0", "outside [0, 2π)"},
		{"phase of 2π", "1.0,000000000000000000000001,1,0,920000000,-50,6.2831854,0.0", "outside [0, 2π)"},
		{"phase past 2π", "1.0,000000000000000000000001,1,0,920000000,-50,9.5,0.0", "outside [0, 2π)"},
		{"timestamp going back", "0.5,000000000000000000000001,1,0,920000000,-50,1.0,0.0", "earlier than the previous row"},
	} {
		_, err := ReadAll(strings.NewReader(hdr + "\n" + good + "\n" + tc.row + "\n"))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want line 3 and %q", tc.name, err, tc.want)
		}
	}
	// The bounds themselves: phase 0, a repeated timestamp.
	if _, err := ReadAll(strings.NewReader(hdr + "\n" + good + "\n" +
		"1.0,000000000000000000000001,1,0,920000000,-50,0,0.0\n")); err != nil {
		t.Errorf("phase 0 at a repeated timestamp: %v", err)
	}
}

func TestReadAllHeaderOnly(t *testing.T) {
	// A capture that ended before any reports is a valid empty trace.
	out, err := ReadAll(strings.NewReader(strings.Join(header, ",") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d reports from header-only trace", len(out))
	}
}

func TestWriterHeaderOnce(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	sc := sim.DefaultScenario()
	sc.Duration = 5 * time.Second
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Reports[:3] {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header + 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "timestamp_s,") {
		t.Errorf("header = %q", lines[0])
	}
}
