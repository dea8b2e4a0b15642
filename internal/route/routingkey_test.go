package route

// routingKey against the encoding/json envelope decode it replaced
// (kept here as the oracle), plus the inline-year key benchmark.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/contract"
)

// oracleRoutingKey is routingKey before the scanner: the whole body
// through json.Unmarshal.
func oracleRoutingKey(body []byte) (string, bool) {
	if len(body) == 0 {
		return "", false
	}
	var env struct {
		Contract  json.RawMessage   `json:"contract"`
		Contracts []json.RawMessage `json:"contracts"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return "", false
	}
	raw := env.Contract
	if len(raw) == 0 && len(env.Contracts) > 0 {
		raw = env.Contracts[0]
	}
	if len(raw) == 0 {
		return "", false
	}
	spec, err := contract.ParseSpec(raw)
	if err != nil {
		return "", false
	}
	key, err := contract.HashSpec(spec)
	if err != nil {
		return "", false
	}
	return key, true
}

const (
	specA = `{"name":"a","tariffs":[{"type":"fixed","rate":0.07}]}`
	specB = `{"name":"b","tariffs":[{"type":"fixed","rate":0.09}]}`
)

func checkRoutingKey(t *testing.T, body []byte) {
	t.Helper()
	gotKey, gotOK := routingKey(body)
	wantKey, wantOK := oracleRoutingKey(body)
	if gotKey != wantKey || gotOK != wantOK {
		t.Fatalf("routingKey = %q,%v; oracle %q,%v\nbody %q", gotKey, gotOK, wantKey, wantOK, body)
	}
}

// FuzzRoutingKey checks routingKey against the oracle. Its seed corpus
// (testdata/fuzz/FuzzRoutingKey) sits at the edges of the scanned
// shape: the batch contracts form, null and non-array contracts,
// escaped, case-variant and duplicate keys, numbers encoding/json
// rejects inside a load, and trailing data.
func FuzzRoutingKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		// The fallback to encoding/json makes bodies json.Valid
		// rejects agree too, so every body is checked, not only
		// valid ones.
		checkRoutingKey(t, body)
	})
}

func TestRoutingKeyYearMatchesOracle(t *testing.T) {
	checkRoutingKey(t, yearBody(1))
}

// TestScanSpecFastPath pins which shapes the scanner keys by itself.
func TestScanSpecFastPath(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"contract":` + specA + `,"load":{"series":{"kw":[1,2.5,-0,1e400]}}}`, true},
		{`{"contracts":[` + specA + `,` + specB + `]}`, true},
		{`{"contracts":[],"contract":` + specB + `}`, true},
		{`{"contracts":null,"contract":` + specB + `}`, false},
		{`{"contract":` + specA + `,"Contract":` + specB + `}`, false},
		{`{"contract":` + specA + `} trailing`, false},
	} {
		raw, err := scanSpec([]byte(tc.body))
		if fast := err == nil && len(raw) > 0; fast != tc.fast {
			t.Errorf("fast = %v (err %v), want %v: %s", fast, err, tc.fast, tc.body)
		}
	}
}

// yearBody is a monthly-bill body with a 35,040-sample year inline.
func yearBody(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString(`{"contract":` + specA + `,"load":{"series":{"start":"2016-01-01T00:00:00Z","interval_seconds":900,"kw":[`)
	for i := 0; i < 35040; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		v := 12000 * (1 + 0.1*math.Sin(2*math.Pi*float64(i%96)/96) + 0.01*rng.NormFloat64())
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteString("]}}}")
	return []byte(b.String())
}

var keySink string

// BenchmarkRoutingKeyYear is the router's key derivation for an inline
// year body: one validating skip over ~650 KB plus the spec parse and
// canonical hash.
func BenchmarkRoutingKeyYear(b *testing.B) {
	body := yearBody(1)
	if !bytes.Contains(body, []byte(`"kw":[`)) {
		b.Fatal("no series")
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key, ok := routingKey(body)
		if !ok {
			b.Fatal("no key")
		}
		keySink = key
	}
}
