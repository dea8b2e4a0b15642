package serve

// Request ingest: the body bytes gated buffered, decoded once. The
// fast shape — a JSON object whose load.series.kw is an array of plain
// numbers — is walked by ingest.Scanner: the kW samples parse straight
// into units.Power and encoding/json decodes only the envelope, with
// that array spliced to []. Every other body, and every body the
// scanner finds anything unusual in, decodes through encoding/json
// alone, exactly as before; so accepted bodies bill bit-identically
// and rejected ones are still 400s. The explicit ingest bounds apply
// on both paths.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/hpc"
	"repro/internal/ingest"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// maxInlineSamples caps an inline load — series or CSV — at a leap
// year of one-minute samples, the size maxBodyBytes is sized for. The
// cap is structural on JSON bodies: no array in a request may hold
// more elements, so it holds on the encoding/json path too, before
// that path allocates.
const maxInlineSamples = 366 * 24 * 60

// maxIntervalSeconds is the longest series interval whose
// time.Duration does not overflow.
const maxIntervalSeconds = math.MaxInt64 / int64(time.Second)

// maxSyntheticDays and maxIntervalMinutes are the longest load.synthetic
// span and interval whose time.Duration does not overflow.
const (
	maxSyntheticDays   = math.MaxInt64 / int64(24*time.Hour)
	maxIntervalMinutes = math.MaxInt64 / int64(time.Minute)
)

// boundError is a request refused by an explicit ingest bound rather
// than by the JSON grammar or a field's own validation.
type boundError struct{ msg string }

func (e *boundError) Error() string { return e.msg }

func tooManySamples(what string) error {
	return &boundError{fmt.Sprintf("%s holds more than %d samples (the inline sample cap)", what, maxInlineSamples)}
}

// The keys walked at each level of the fast shape.
var (
	loadKey   = []string{"load"}
	seriesKey = []string{"series"}
	kwKey     = []string{"kw"}
)

// decodeRequest decodes body into dst, one of the request types whose
// load sits at the top-level "load" key. kw is non-nil when the fast
// path parsed load.series.kw, and then holds the samples; the decoded
// SeriesSpec.KW is empty.
func decodeRequest(body []byte, dst any) (kw []units.Power, err error) {
	kw, start, end, err := scanSeriesKW(body)
	switch {
	case errors.Is(err, ingest.ErrTooLong):
		return nil, tooManySamples("an array")
	case err != nil:
		// Outside the fast shape: bound the arrays, then let
		// encoding/json decide, exactly as before the fast path existed.
		if _, _, err := ingest.NewScanner(body, maxInlineSamples).Skip(); errors.Is(err, ingest.ErrTooLong) {
			return nil, tooManySamples("an array")
		}
		return nil, json.NewDecoder(bytes.NewReader(body)).Decode(dst)
	case kw == nil:
		// Valid JSON without an inline series: nothing to splice.
		return nil, json.Unmarshal(body, dst)
	}
	envelope := make([]byte, 0, len(body)-(end-start)+2)
	envelope = append(envelope, body[:start]...)
	envelope = append(envelope, "[]"...)
	envelope = append(envelope, body[end:]...)
	if err := json.Unmarshal(envelope, dst); err != nil {
		return nil, err
	}
	return kw, nil
}

// scanSeriesKW walks body once. When load.series.kw is an array of
// numbers it returns the parsed samples and the array's span; kw is nil
// for a valid body without one. Any error sends the caller to
// encoding/json.
func scanSeriesKW(body []byte) (kw []units.Power, start, end int, err error) {
	sc := ingest.NewScanner(body, maxInlineSamples)
	err = sc.Object(loadKey, func(int) error {
		return sc.Object(seriesKey, func(int) error {
			return sc.Object(kwKey, func(int) error {
				start = sc.Pos()
				kw = make([]units.Power, 0, countHint(body[start:]))
				if err := sc.Array(func() error {
					tok, err := sc.Number()
					if err != nil {
						return err
					}
					// The grammar is checked, so the only failure left is
					// a range error, which encoding/json reports itself.
					v, err := strconv.ParseFloat(string(tok), 64)
					if err != nil {
						return ingest.ErrShape
					}
					kw = append(kw, units.Power(v))
					return nil
				}); err != nil {
					return err
				}
				end = sc.Pos()
				return nil
			})
		})
	})
	if err == nil {
		err = sc.Finish()
	}
	return kw, start, end, err
}

// countHint sizes the sample slice for the array at the start of data:
// numbers hold no brackets, so the first ']' ends an array of numbers,
// and its commas count the elements. Both are vectorized byte scans.
// Only a hint — capped at the sample bound, wrong for arrays that turn
// out not to hold numbers.
func countHint(data []byte) int {
	end := bytes.IndexByte(data, ']')
	if end < 0 {
		return 0
	}
	return min(bytes.Count(data[:end], []byte{','})+1, maxInlineSamples)
}

// resolveLoad materializes the request's load profile. kw, when
// non-nil, is load.series.kw as decodeRequest parsed it.
func resolveLoad(ls LoadSpec, kw []units.Power) (*timeseries.PowerSeries, error) {
	set := 0
	for _, present := range []bool{ls.CSV != "", ls.Series != nil, ls.Profile != "", ls.Synthetic != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("load: set exactly one of csv, series, profile, synthetic")
	}
	switch {
	case ls.CSV != "":
		load, err := timeseries.ReadPowerCSVMax(strings.NewReader(ls.CSV), maxInlineSamples)
		if errors.Is(err, timeseries.ErrTooManySamples) {
			return nil, tooManySamples("load.csv")
		}
		return load, err
	case ls.Series != nil:
		sec := ls.Series.IntervalSeconds
		if sec <= 0 {
			return nil, errors.New("load.series: interval_seconds must be positive")
		}
		if int64(sec) > maxIntervalSeconds {
			return nil, &boundError{fmt.Sprintf(
				"load.series: interval_seconds %d overflows a duration (max %d)", sec, maxIntervalSeconds)}
		}
		if kw == nil {
			kw = make([]units.Power, len(ls.Series.KW))
			for i, v := range ls.Series.KW {
				kw[i] = units.Power(v)
			}
		}
		return timeseries.NewPower(ls.Series.Start, time.Duration(sec)*time.Second, kw)
	case ls.Profile != "":
		return namedProfile(ls.Profile)
	default:
		return resolveSynthetic(*ls.Synthetic)
	}
}

// namedLoads holds each named profile, generated on first use and then
// shared by every request: a PowerSeries is immutable, and the one
// consumer that reshapes a load (the optimizer) copies it first.
var namedLoads = func() map[string]func() (*timeseries.PowerSeries, error) {
	m := make(map[string]func() (*timeseries.PowerSeries, error))
	for name, cfg := range NamedProfiles() {
		m[name] = sync.OnceValues(func() (*timeseries.PowerSeries, error) {
			return hpc.SyntheticFacilityLoad(cfg)
		})
	}
	return m
}()

func namedProfile(name string) (*timeseries.PowerSeries, error) {
	load, ok := namedLoads[name]
	if !ok {
		names := make([]string, 0, len(namedLoads))
		for n := range namedLoads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("load.profile: unknown profile %q (have: %s)",
			name, strings.Join(names, ", "))
	}
	return load()
}
