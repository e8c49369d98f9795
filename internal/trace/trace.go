// Package trace records and replays low-level tag report streams in a
// CSV format, the workflow a deployed system needs: capture the
// reader's raw output once, then develop, regress, and tune the
// pipeline against the recorded trace offline. The column layout
// mirrors the record fields of Fig. 10 ({RSS, Doppler, Phase, Time
// Stamp} per read, plus identity and channel metadata).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"tagbreathe/internal/epc"
	"tagbreathe/internal/reader"
	"tagbreathe/internal/units"
)

// header is the canonical column order.
var header = []string{
	"timestamp_s", "epc", "antenna", "channel", "freq_hz",
	"rssi_dbm", "phase_rad", "doppler_hz",
}

// Writer streams tag reports to CSV.
type Writer struct {
	csv     *csv.Writer
	started bool
}

// NewWriter wraps w; the header row is written with the first report.
func NewWriter(w io.Writer) *Writer {
	return &Writer{csv: csv.NewWriter(w)}
}

// Write appends one report.
func (w *Writer) Write(r reader.TagReport) error {
	if !w.started {
		if err := w.csv.Write(header); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		w.started = true
	}
	rec := []string{
		strconv.FormatFloat(r.Timestamp.Seconds(), 'f', 6, 64),
		r.EPC.String(),
		strconv.Itoa(r.AntennaPort),
		strconv.Itoa(r.ChannelIndex),
		strconv.FormatFloat(float64(r.Frequency), 'f', 0, 64),
		strconv.FormatFloat(float64(r.RSSI), 'f', 2, 64),
		strconv.FormatFloat(float64(r.Phase), 'f', 6, 64),
		strconv.FormatFloat(r.DopplerHz, 'f', 4, 64),
	}
	if err := w.csv.Write(rec); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	return nil
}

// Flush completes the output. Call before closing the underlying
// writer.
func (w *Writer) Flush() error {
	w.csv.Flush()
	return w.csv.Error()
}

// WriteAll records a full report slice.
func WriteAll(w io.Writer, reports []reader.TagReport) error {
	tw := NewWriter(w)
	for _, r := range reports {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// ReadAll parses a recorded trace. Reports are returned in file order;
// recorded traces are timestamp-ordered because readers emit them that
// way, and the pipeline requires it, so a row stamped earlier than the
// row before it is an error. So is a value the pipeline's reports never
// carry: NaN or ±Inf in a float column, or a phase outside [0, 2π).
// Errors name the offending line of the file so a bad row in a
// multi-hour capture can be found and fixed without bisecting.
func ReadAll(r io.Reader) ([]reader.TagReport, error) {
	cr := csv.NewReader(r)
	// Column counts are validated per row below so the error can name
	// the offending line. Traces never contain quoted multi-line
	// fields, so FieldPos line numbers are the file's physical lines.
	cr.FieldsPerRecord = -1

	hdr, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty file")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(hdr) != len(header) {
		return nil, fmt.Errorf("trace: line 1: header has %d columns, want %d", len(hdr), len(header))
	}
	for i, want := range header {
		if hdr[i] != want {
			return nil, fmt.Errorf("trace: line 1: column %d is %q, want %q", i+1, hdr[i], want)
		}
	}

	out := make([]reader.TagReport, 0, 64)
	prev := time.Duration(math.MinInt64)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			// csv.ParseError already names the line.
			return nil, fmt.Errorf("trace: %w", err)
		}
		line, _ := cr.FieldPos(0)
		if len(row) != len(header) {
			return nil, fmt.Errorf("trace: line %d: %d columns, want %d", line, len(row), len(header))
		}
		rep, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if rep.Timestamp < prev {
			return nil, fmt.Errorf("trace: line %d: timestamp %v is earlier than the previous row's %v",
				line, rep.Timestamp, prev)
		}
		prev = rep.Timestamp
		out = append(out, rep)
	}
}

// parseFloat parses one float column, which must be finite.
func parseFloat(name, field string) (float64, error) {
	v, err := strconv.ParseFloat(field, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s: %v is not finite", name, v)
	}
	return v, nil
}

func parseRow(row []string) (reader.TagReport, error) {
	var rep reader.TagReport
	ts, err := parseFloat("timestamp", row[0])
	if err != nil {
		return rep, err
	}
	rep.Timestamp = time.Duration(ts * float64(time.Second))
	rep.EPC, err = epc.ParseEPC96(row[1])
	if err != nil {
		return rep, err
	}
	if rep.AntennaPort, err = strconv.Atoi(row[2]); err != nil {
		return rep, fmt.Errorf("antenna: %w", err)
	}
	if rep.ChannelIndex, err = strconv.Atoi(row[3]); err != nil {
		return rep, fmt.Errorf("channel: %w", err)
	}
	freq, err := parseFloat("frequency", row[4])
	if err != nil {
		return rep, err
	}
	rep.Frequency = units.Hertz(freq)
	rssi, err := parseFloat("rssi", row[5])
	if err != nil {
		return rep, err
	}
	rep.RSSI = units.DBm(rssi)
	phase, err := parseFloat("phase", row[6])
	if err != nil {
		return rep, err
	}
	if phase < 0 || phase >= 2*math.Pi {
		return rep, fmt.Errorf("phase: %v rad is outside [0, 2π)", phase)
	}
	rep.Phase = units.Radians(phase)
	if rep.DopplerHz, err = parseFloat("doppler", row[7]); err != nil {
		return rep, err
	}
	return rep, nil
}
