package timeseries

// CSV interchange for load profiles: the format utility meters and
// building-management exports commonly use — one header line, then
// RFC 3339 timestamp and kW value per row. Only the first row's
// timestamp and the first-to-second spacing define start and interval;
// every subsequent row must land on the grid.

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/units"
)

// WritePowerCSV writes the series as "timestamp,kw" rows with a header.
func WritePowerCSV(w io.Writer, s *PowerSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", "kw"}); err != nil {
		return err
	}
	for i := 0; i < s.Len(); i++ {
		rec := []string{
			s.TimeAt(i).Format(time.RFC3339),
			strconv.FormatFloat(float64(s.At(i)), 'f', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvRow is one data row plus the file line it came from, so errors can
// point at the exact spot in the export.
type csvRow struct {
	line int
	ts   string
	kw   string
}

// ErrTooManySamples reports a CSV profile with more data rows than the
// caller's cap (ReadPowerCSVMax).
var ErrTooManySamples = errors.New("timeseries: CSV exceeds the sample cap")

// ReadPowerCSV parses a "timestamp,kw" CSV into a series. A header row
// is optional: if the first row's timestamp column does not parse as
// RFC 3339 it is taken as a header and skipped. Rows must be equally
// spaced and in order; errors name the offending line and field.
func ReadPowerCSV(r io.Reader) (*PowerSeries, error) {
	return ReadPowerCSVMax(r, 0)
}

// ReadPowerCSVMax is ReadPowerCSV with a cap of maxSamples data rows
// (<= 0: no cap). It stops reading at the first row past the cap —
// before buffering it — and returns an error wrapping
// ErrTooManySamples.
func ReadPowerCSVMax(r io.Reader, maxSamples int) (*PowerSeries, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var rows []csvRow
	tooMany := func() error {
		return fmt.Errorf("%w: more than %d data rows", ErrTooManySamples, maxSamples)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// csv.ParseError already carries the line number.
			return nil, fmt.Errorf("timeseries: bad CSV: %w", err)
		}
		// One row beyond the cap may still be the header.
		if maxSamples > 0 && len(rows) > maxSamples {
			return nil, tooMany()
		}
		line, _ := cr.FieldPos(0)
		rows = append(rows, csvRow{line: line, ts: rec[0], kw: rec[1]})
	}
	if len(rows) > 0 {
		if _, err := time.Parse(time.RFC3339, rows[0].ts); err != nil {
			rows = rows[1:] // header row
		}
	}
	if maxSamples > 0 && len(rows) > maxSamples {
		return nil, tooMany()
	}
	if len(rows) < 2 { // at least two samples to fix the interval
		return nil, fmt.Errorf("timeseries: CSV needs at least two data rows to fix the sample interval")
	}
	parse := func(row csvRow) (time.Time, units.Power, error) {
		ts, err := time.Parse(time.RFC3339, row.ts)
		if err != nil {
			return time.Time{}, 0, fmt.Errorf("timeseries: line %d: timestamp field %q is not RFC 3339 (e.g. 2016-03-01T00:00:00Z)",
				row.line, row.ts)
		}
		v, err := strconv.ParseFloat(row.kw, 64)
		if err != nil {
			return time.Time{}, 0, fmt.Errorf("timeseries: line %d: kw field %q is not a number", row.line, row.kw)
		}
		return ts, units.Power(v), nil
	}
	start, first, err := parse(rows[0])
	if err != nil {
		return nil, err
	}
	second, _, err := parse(rows[1])
	if err != nil {
		return nil, err
	}
	interval := second.Sub(start)
	if interval <= 0 {
		return nil, fmt.Errorf("timeseries: line %d: timestamp %s is not after line %d's %s (rows must be in order)",
			rows[1].line, second.Format(time.RFC3339), rows[0].line, start.Format(time.RFC3339))
	}
	samples := make([]units.Power, 0, len(rows))
	samples = append(samples, first)
	for i := 1; i < len(rows); i++ {
		ts, v, err := parse(rows[i])
		if err != nil {
			return nil, err
		}
		want := start.Add(time.Duration(i) * interval)
		if !ts.Equal(want) {
			return nil, fmt.Errorf("timeseries: line %d: timestamp %s breaks the %s grid (want %s)",
				rows[i].line, ts.Format(time.RFC3339), interval, want.Format(time.RFC3339))
		}
		samples = append(samples, v)
	}
	return NewPower(start, interval, samples)
}
