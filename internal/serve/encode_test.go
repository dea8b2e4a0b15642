package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/contract"
	"repro/internal/feed"
)

// monthlyBodyOracle is the encoding/json rendering monthlyBillBody must
// reproduce byte for byte: each month as Bill.JSON, embedded as a
// json.RawMessage in a MarshalIndent envelope.
func monthlyBodyOracle(eng *contract.Engine, bills []*contract.Bill, fr feedResolution) ([]byte, error) {
	months := make([]json.RawMessage, len(bills))
	for i, b := range bills {
		data, err := b.JSON()
		if err != nil {
			return nil, err
		}
		months[i] = data
	}
	return json.MarshalIndent(struct {
		Contract       string            `json:"contract"`
		Months         []json.RawMessage `json:"months"`
		GrandTotal     float64           `json:"grand_total"`
		Degraded       bool              `json:"degraded,omitempty"`
		DegradedReason string            `json:"degraded_reason,omitempty"`
	}{eng.Contract().Name, months, contract.TotalOf(bills).Float(),
		fr.degraded(), degradedReason(fr)}, "", "  ")
}

// TestMonthlyBillBodyMatchesMarshalIndent: the hand-built monthly
// envelope is exactly the encoding/json form — healthy, stale, degraded
// with and without a reason, and with zero, one and twelve months —
// for a contract name that needs escaping.
func TestMonthlyBillBodyMatchesMarshalIndent(t *testing.T) {
	spec := kitchenSinkSpec()
	spec.Name = "site <a&b> \"q\"\t\u2028\xff"
	spec.Tariffs = spec.Tariffs[:1] // TOU only: no feed, stays columnar
	c, err := spec.Build(contract.BuildContext{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := contract.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	load, err := namedProfile("year-in-life")
	if err != nil {
		t.Fatal(err)
	}
	year, err := eng.BillMonths(load, contract.BillingInput{})
	if err != nil {
		t.Fatal(err)
	}
	if len(year) != 12 {
		t.Fatalf("want 12 months, got %d", len(year))
	}

	resolutions := map[string]feedResolution{
		"healthy":           {},
		"stale":             {used: true, state: feed.Stale, reason: "cached"},
		"degraded":          {used: true, state: feed.Degraded, reason: "feed down <&> \x01"},
		"degraded-noreason": {used: true, state: feed.Degraded},
	}
	monthSets := map[string][]*contract.Bill{
		"nil":    nil,
		"zero":   {},
		"one":    year[:1],
		"twelve": year,
	}
	for rname, fr := range resolutions {
		for mname, bills := range monthSets {
			t.Run(fmt.Sprintf("%s/%s", rname, mname), func(t *testing.T) {
				got, err := monthlyBillBody(eng, bills, fr)
				if err != nil {
					t.Fatal(err)
				}
				want, err := monthlyBodyOracle(eng, bills, fr)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("monthly body differs from MarshalIndent:\n%s\nvs\n%s", got, want)
				}
			})
		}
	}
}

// batch64Body is a /v1/bill/batch request: the year-in-life profile
// against 64 contracts, alternating a fixed-tariff and a day/night TOU
// shape with seeded prices.
func batch64Body(tb testing.TB) []byte {
	tb.Helper()
	req := BatchRequest{Load: &LoadSpec{Profile: "year-in-life"}}
	for i := 0; i < maxBatchItems; i++ {
		spec := quickstartSpec()
		spec.Name = fmt.Sprintf("bench-%02d", i)
		step := float64(i) / 1000
		if i%2 == 1 {
			spec.Tariffs = []contract.TariffSpec{{Type: "tou", DayRate: 0.02 + step, NightRate: 0.005, SummerDayRate: 0.04, DayFrom: 8, DayTo: 20}}
		} else {
			spec.Tariffs[0].Rate += step
		}
		spec.DemandCharges[0].PricePerKW += float64(i % 7)
		req.Contracts = append(req.Contracts, specJSON(tb, spec))
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkServeBatch64 is POST /v1/bill/batch?monthly=1 with the
// year-in-life profile × 64 contracts through the in-process handler:
// decode, load, engine cache, batch evaluate and per-item encode.
func BenchmarkServeBatch64(b *testing.B) {
	h := NewServer(Config{}).Handler()
	body := batch64Body(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bill/batch?monthly=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body)
		}
	}
}
