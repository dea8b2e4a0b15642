package serve

// Ingest tests: the fast decode path against the encoding/json decode
// it replaced (kept here as the oracle), the explicit ingest bounds,
// the shared named-profile cache, and the inline-year handler
// benchmark.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/optimize"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// oracleDecode is the request decode before the fast path: one
// encoding/json Decoder over the body, then the series conversion.
func oracleDecode(body []byte, dst any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(dst)
}

// oracleLoad is resolveLoad before the fast path, for inline loads:
// ReadPowerCSV, or SeriesSpec.KW converted sample by sample.
func oracleLoad(ls LoadSpec) (*timeseries.PowerSeries, error) {
	if ls.Series != nil && ls.CSV == "" && ls.Profile == "" && ls.Synthetic == nil {
		if ls.Series.IntervalSeconds <= 0 {
			return nil, errors.New("load.series: interval_seconds must be positive")
		}
		samples := make([]units.Power, len(ls.Series.KW))
		for i, v := range ls.Series.KW {
			samples[i] = units.Power(v)
		}
		return timeseries.NewPower(ls.Series.Start,
			time.Duration(ls.Series.IntervalSeconds)*time.Second, samples)
	}
	if ls.CSV != "" && ls.Series == nil && ls.Profile == "" && ls.Synthetic == nil {
		return timeseries.ReadPowerCSV(strings.NewReader(ls.CSV))
	}
	return resolveLoad(ls, nil)
}

func isBound(err error) bool {
	var be *boundError
	return errors.As(err, &be)
}

// sameSeries reports whether two loads agree bit for bit.
func sameSeries(a, b *timeseries.PowerSeries) error {
	if !a.Start().Equal(b.Start()) || a.Start().String() != b.Start().String() {
		return fmt.Errorf("start %v vs %v", a.Start(), b.Start())
	}
	if a.Interval() != b.Interval() {
		return fmt.Errorf("interval %v vs %v", a.Interval(), b.Interval())
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("len %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if math.Float64bits(float64(a.At(i))) != math.Float64bits(float64(b.At(i))) {
			return fmt.Errorf("sample %d: %v vs %v", i, a.At(i), b.At(i))
		}
	}
	return nil
}

// checkDecodeMatchesOracle decodes body both ways into a BillRequest
// and a BatchRequest and fails unless both succeed with bit-identical
// results or both fail — a new ingest bound being the one allowed
// difference.
func checkDecodeMatchesOracle(t *testing.T, body []byte) {
	t.Helper()
	var got, want BillRequest
	kw, gotErr := decodeRequest(body, &got)
	wantErr := oracleDecode(body, &want)
	if isBound(gotErr) {
		return
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("bill decode: new err %v, oracle err %v\nbody %q", gotErr, wantErr, body)
	}
	if gotErr != nil {
		return
	}
	if !bytes.Equal(got.Contract, want.Contract) {
		t.Fatalf("contract %q vs %q", got.Contract, want.Contract)
	}
	if !reflect.DeepEqual(got.Input, want.Input) || !reflect.DeepEqual(got.Feed, want.Feed) {
		t.Fatalf("input/feed %+v %+v vs %+v %+v", got.Input, got.Feed, want.Input, want.Feed)
	}
	if s := want.Load.Synthetic; s != nil {
		// Generated, not ingested: compare the decoded parameters only,
		// so the fuzzer cannot ask for a billion-sample profile.
		if !reflect.DeepEqual(got.Load.Synthetic, s) {
			t.Fatalf("synthetic %+v vs %+v", got.Load.Synthetic, s)
		}
		return
	}
	gotLoad, gotErr := resolveLoad(got.Load, kw)
	wantLoad, wantErr := oracleLoad(want.Load)
	if isBound(gotErr) {
		return
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("load: new err %v, oracle err %v\nbody %q", gotErr, wantErr, body)
	}
	if gotErr == nil {
		if err := sameSeries(gotLoad, wantLoad); err != nil {
			t.Fatalf("load differs: %v\nbody %q", err, body)
		}
	}

	// The batch envelope: its load is a pointer, and contracts a list.
	var gotB, wantB BatchRequest
	_, gotErr = decodeRequest(body, &gotB)
	wantErr = oracleDecode(body, &wantB)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("batch decode: new err %v, oracle err %v\nbody %q", gotErr, wantErr, body)
	}
	if gotErr == nil {
		if !bytes.Equal(gotB.Contract, wantB.Contract) || !reflect.DeepEqual(gotB.Contracts, wantB.Contracts) {
			t.Fatalf("batch contracts %q %q vs %q %q", gotB.Contract, gotB.Contracts, wantB.Contract, wantB.Contracts)
		}
		if (gotB.Load == nil) != (wantB.Load == nil) {
			t.Fatalf("batch load presence differs")
		}
	}
}

// FuzzDecodeLoad checks the fast decode against the oracle. Its seed
// corpus (testdata/fuzz/FuzzDecodeLoad) sits at the edges of the fast
// shape: null, string and nested elements, -0, 1e400, leading zeros,
// exponents, escaped, case-variant and duplicate keys at each scanned
// level, trailing data, and the batch contracts form.
func FuzzDecodeLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesOracle(t, body)
	})
}

// TestDecodeYearMatchesOracle runs a full inline year through the
// differential check.
func TestDecodeYearMatchesOracle(t *testing.T) {
	checkDecodeMatchesOracle(t, yearBillBody(1))
}

// TestDecodeFastPathTaken pins which bodies the scanner handles itself:
// a fast-shape body must not silently degrade to encoding/json.
func TestDecodeFastPathTaken(t *testing.T) {
	series := func(kw string) string {
		return `{"contract":null,"load":{"series":{"interval_seconds":60,` + kw + `}}}`
	}
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{series(`"kw":[1,2.5,-0,1e3,1E-2]`), true},
		{series(`"kw":[]`), true},
		{series(`"kw":[ 1 ,` + "\n" + ` 2 ]`), true},
		{series(`"kw":[1,null,3]`), false},
		{series(`"kw":[1e400]`), false},
		{series(`"KW":[1,2]`), false},
		{series(`"kw":[1],"kw":[2]`), false},
		{series(`"kw":[1,2]`) + " trailing", false},
	} {
		kw, _, _, err := scanSeriesKW([]byte(tc.body))
		if fast := err == nil && kw != nil; fast != tc.fast {
			t.Errorf("fast path = %v (err %v), want %v: %s", fast, err, tc.fast, tc.body)
		}
	}
}

// yearBillBody is a monthly-bill request carrying a 35,040-sample
// 15-minute year inline, shaped like a metering export: full-precision
// kW readings around a 12 MW base.
func yearBillBody(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.WriteString(`{"contract":`)
	spec, _ := json.Marshal(quickstartSpec())
	b.Write(spec)
	b.WriteString(`,"load":{"series":{"start":"2016-01-01T00:00:00Z","interval_seconds":900,"kw":[`)
	for i := 0; i < 35040; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		v := 12000 * (1 + 0.1*math.Sin(2*math.Pi*float64(i%96)/96) + 0.01*rng.NormFloat64())
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteString("]}}}")
	return b.Bytes()
}

func postRaw(t *testing.T, h http.Handler, path string, body []byte) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestIngestBounds: each explicit bound answers 400 with its reason,
// on the fast path and on the encoding/json path alike.
func TestIngestBounds(t *testing.T) {
	h := NewServer(Config{}).Handler()
	spec, _ := json.Marshal(quickstartSpec())
	series := func(interval string, kw string) []byte {
		return []byte(`{"contract":` + string(spec) + `,"load":{"series":{"start":"2016-03-01T00:00:00Z","interval_seconds":` +
			interval + `,"kw":` + kw + `}}}`)
	}
	tooMany := "[" + strings.Repeat("1,", maxInlineSamples) + "1]"
	tooManyNull := "[null," + strings.Repeat("1,", maxInlineSamples) + "1]"
	var csv strings.Builder
	csv.WriteString("timestamp,kw\n")
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i <= maxInlineSamples; i++ {
		fmt.Fprintf(&csv, "%s,1\n", start.Add(time.Duration(i)*time.Minute).Format(time.RFC3339))
	}
	csvBody, _ := json.Marshal(BillRequest{Contract: spec, Load: LoadSpec{CSV: csv.String()}})
	synthetic := func(days, intervalMinutes string) []byte {
		return []byte(`{"contract":` + string(spec) + `,"load":{"synthetic":{"days":` + days +
			`,"interval_minutes":` + intervalMinutes + `}}}`)
	}

	for _, tc := range []struct {
		name, reason string
		body         []byte
	}{
		{"series samples, fast path", "an array holds more than 527040 samples", series("60", tooMany)},
		{"series samples, encoding/json path", "an array holds more than 527040 samples", series("60", tooManyNull)},
		{"csv rows", "load.csv holds more than 527040 samples", csvBody},
		{"interval overflow", "interval_seconds 9223372037 overflows a duration", series("9223372037", "[1,2]")},
		{"synthetic samples", "load.synthetic asks for 1051200 samples, more than 527040", synthetic("730", "1")},
		{"synthetic samples, default interval", "load.synthetic asks for 960000 samples", synthetic("10000", "0")},
		{"synthetic negative days", "days (-1) and interval_minutes (15) must not be negative", synthetic("-1", "15")},
		{"synthetic negative interval", "days (30) and interval_minutes (-15) must not be negative", synthetic("30", "-15")},
		{"synthetic days overflow", "days 106752 overflows a duration", synthetic("106752", "15")},
		{"synthetic interval overflow", "interval_minutes 153722868 overflows a duration", synthetic("30", "153722868")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postRaw(t, h, "/v1/bill", tc.body)
			if code != http.StatusBadRequest || !strings.Contains(body, tc.reason) {
				t.Errorf("got %d %s, want 400 naming %q", code, body, tc.reason)
			}
		})
	}

	// The largest synthetic load the cap allows is generated; the
	// largest span and interval that fit a duration pass the overflow
	// bounds.
	if load, err := resolveSynthetic(SyntheticSpec{Days: 366, IntervalMinutes: 1}); err != nil || load.Len() != maxInlineSamples {
		t.Errorf("synthetic load at the cap: %v", err)
	}
	if _, err := resolveSynthetic(SyntheticSpec{Days: int(maxSyntheticDays), IntervalMinutes: int(maxIntervalMinutes)}); isBound(err) {
		t.Errorf("max synthetic span and interval refused by a bound: %v", err)
	}

	// The largest interval that fits is accepted.
	if code, body := postRaw(t, h, "/v1/bill", series(strconv.FormatInt(maxIntervalSeconds, 10), "[1,2]")); code == http.StatusBadRequest &&
		strings.Contains(body, "overflows") {
		t.Errorf("max interval refused: %s", body)
	}
}

// TestNamedProfileCacheUntouched: bill, batch and optimize requests on
// a cached named profile share one series and leave its samples bit
// for bit as generated.
func TestNamedProfileCacheUntouched(t *testing.T) {
	h := NewServer(Config{}).Handler()
	cached, err := namedProfile("quickstart-month")
	if err != nil {
		t.Fatal(err)
	}
	again, _ := namedProfile("quickstart-month")
	if cached != again {
		t.Fatal("named profile regenerated; want one shared series")
	}
	if err := sameSeries(cached, namedLoad(t, "quickstart-month")); err != nil {
		t.Fatalf("cached profile differs from the generator: %v", err)
	}
	before := cached.AppendSamples(nil)

	spec := specJSON(t, kitchenSinkSpec())
	ls := LoadSpec{Profile: "quickstart-month"}
	for _, rq := range []struct {
		path string
		body any
	}{
		{"/v1/bill", BillRequest{Contract: spec, Load: ls}},
		{"/v1/bill?monthly=1", BillRequest{Contract: spec, Load: ls}},
		{"/v1/bill/batch?monthly=1", BatchRequest{Contracts: []json.RawMessage{spec, specJSON(t, quickstartSpec())}, Load: &ls}},
		{"/v1/optimize", OptimizeRequest{Contract: spec, Load: ls,
			Flexibility: optimize.Flexibility{DeferrableFraction: 0.2, PartialFraction: 0.2},
			Search:      &SearchSpec{Seed: 3, Candidates: 200}}},
	} {
		data, _ := json.Marshal(rq.body)
		if code, body := postRaw(t, h, rq.path, data); code != http.StatusOK {
			t.Fatalf("%s: %d %s", rq.path, code, body)
		}
	}
	after := cached.AppendSamples(nil)
	for i := range before {
		if math.Float64bits(float64(before[i])) != math.Float64bits(float64(after[i])) {
			t.Fatalf("sample %d changed: %v -> %v", i, before[i], after[i])
		}
	}
}

// BenchmarkServeBillSeriesYear is POST /v1/bill?monthly=1 with an inline
// 35,040-sample year through the in-process handler: body read, decode,
// load, cache hit, evaluate and encode.
func BenchmarkServeBillSeriesYear(b *testing.B) {
	h := NewServer(Config{}).Handler()
	body := yearBillBody(1)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bill?monthly=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body)
		}
	}
}
