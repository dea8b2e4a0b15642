package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestMatchesEncodingJSON holds each primitive to json.Marshal of the
// same value: equal bytes, and an error exactly where Marshal errors.
// FuzzBillJSON (internal/contract) drives the same comparison over
// random whole bills.
func TestMatchesEncodingJSON(t *testing.T) {
	check := func(v any, got []byte, err error) {
		t.Helper()
		want, wantErr := json.Marshal(v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%#v: error %v, encoding/json error %v", v, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Errorf("%#v: got %s, encoding/json %s", v, got, want)
		}
	}
	for _, s := range []string{
		"", "plain", `quote " backslash \`, "<script>&amp;</script>",
		"\b\f\n\r\t", "\x00\x01\x1f\x7f", "\xff\xfe broken \xc3\x28", "line\u2028para\u2029",
		"\u00e9\u4e2d\U0001f600", "\ufffd",
	} {
		check(s, String(nil, s), nil)
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 123456789.123,
		1e20, 1e21, -1e21, 1.7976931348623157e308, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		got, err := Float(nil, f)
		check(f, got, err)
	}
	cet := time.FixedZone("CET", 3600)
	for _, tm := range []time.Time{
		time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.October, 30, 2, 30, 0, 123456789, cet),
		time.Date(9999, time.December, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, time.January, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, time.January, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.March, 1, 0, 0, 0, 0, time.FixedZone("far", 24*3600)),
		time.Date(2016, time.March, 1, 0, 0, 0, 0, time.FixedZone("far-west", -24*3600)),
		time.Date(2016, time.March, 1, 0, 0, 0, 0, time.FixedZone("edge", 24*3600-1)),
		time.Date(2016, time.March, 1, 0, 0, 0, 0, time.FixedZone("edge-west", -(24*3600-1))),
		time.Date(2016, time.March, 1, 0, 0, 0, 0, time.FixedZone("seconds", -59)),
		time.Date(2016, time.March, 1, 0, 0, 0, 0, time.FixedZone("odd", -(5*3600+30*60+17))),
	} {
		got, err := Time(nil, tm)
		check(tm, got, err)
	}
}

// TestIndentation: Key and Newline write MarshalIndent's layout.
func TestIndentation(t *testing.T) {
	got := append(Key([]byte("{"), 1, "a"), '1')
	got = append(Newline(got, 0), '}')
	want, err := json.MarshalIndent(map[string]int{"a": 1}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}
