package contract

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/demand"
	"repro/internal/hpc"
	"repro/internal/tariff"
	"repro/internal/units"
)

// marshalBillOracle is the encoding/json rendering AppendJSON must
// reproduce byte for byte: the billJSON shape through MarshalIndent.
func marshalBillOracle(b *Bill) ([]byte, error) {
	out := billJSON{
		Contract:    b.Contract,
		PeriodStart: b.PeriodStart,
		PeriodEnd:   b.PeriodEnd,
		EnergyKWh:   float64(b.Energy),
		PeakKW:      float64(b.PeakDemand),
		Total:       b.Total.Float(),
		DemandShare: b.DemandShare(),
	}
	for _, l := range b.Lines {
		out.Lines = append(out.Lines, lineItemJSON{
			Component:   l.Component.String(),
			Description: l.Description,
			Quantity:    l.Quantity,
			Amount:      l.Amount.Float(),
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// nestedOracle is the oracle document as an enclosing MarshalIndent
// renders it depth levels deep (a json.RawMessage element is compacted
// and re-indented with the enclosing prefix).
func nestedOracle(t testing.TB, doc []byte, depth int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, doc, strings.Repeat("  ", depth), "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertAppendJSONMatches checks AppendJSON against the oracle at depths
// 0 and 2, appending after a non-empty prefix: identical bytes, and an
// error exactly when the oracle errors.
func assertAppendJSONMatches(t *testing.T, b *Bill) {
	t.Helper()
	want, wantErr := marshalBillOracle(b)
	for _, depth := range []int{0, 2} {
		got, err := b.AppendJSON([]byte("prefix"), depth)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("depth %d: AppendJSON error %v, MarshalIndent error %v", depth, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("depth %d: AppendJSON dropped dst", depth)
		}
		if w := nestedOracle(t, want, depth); !bytes.Equal(got[len("prefix"):], w) {
			t.Fatalf("depth %d: AppendJSON differs from MarshalIndent:\n%s\nvs\n%s", depth, got[len("prefix"):], w)
		}
	}
}

// TestBillJSONRoundTrip encodes every golden bill (including the
// kitchen-sink contract exercising all component kinds), decodes it,
// and re-encodes: the decoded bill must equal the original field for
// field and the re-encoding must be byte-identical.
func TestBillJSONRoundTrip(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			bill, err := ComputeBill(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			first, err := bill.JSON()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeBill(first)
			if err != nil {
				t.Fatal(err)
			}
			assertBillsIdentical(t, tc.name, decoded, bill)
			second, err := decoded.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("re-encoding differs:\n%s\nvs\n%s", first, second)
			}
		})
	}
}

// TestBillAppendJSONGolden: every golden bill and each of its monthly
// bills renders exactly as encoding/json renders the billJSON shape.
func TestBillAppendJSONGolden(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			bill, err := ComputeBill(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			assertAppendJSONMatches(t, bill)
			months, err := BillMonths(tc.c, tc.load, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range months {
				assertAppendJSONMatches(t, m)
			}
		})
	}
}

// FuzzBillJSON differentially tests the hand-written encoder against
// encoding/json over hostile bills: control bytes, HTML characters,
// invalid UTF-8 and U+2028 in every string; zero, negative zero, tiny,
// huge, negative, NaN and infinite floats; no lines, one line and
// several (with an out-of-range component); times with nanoseconds,
// non-UTC offsets (some of 24 h or more) and years outside [0, 9999].
// The committed corpus (testdata/fuzz/FuzzBillJSON) seeds each of
// those edges.
func FuzzBillJSON(f *testing.F) {
	f.Add("site", "fixed tariff", "1.00 MWh", 1500.5, 12000.0, int64(1234567), int64(1456790400), uint32(0), int16(0), uint8(1))
	f.Fuzz(func(t *testing.T, name, desc, qty string, energy, peak float64, amount, startSec int64, nsec uint32, zoneMin int16, lineSel uint8) {
		loc := time.UTC
		if zoneMin != 0 {
			loc = time.FixedZone("fuzz", int(zoneMin)*60)
		}
		start := time.Unix(startSec, int64(nsec%1e9)).In(loc)
		b := &Bill{
			Contract:    name,
			PeriodStart: start,
			PeriodEnd:   start.AddDate(0, 1, 0),
			Energy:      units.Energy(energy),
			PeakDemand:  units.Power(peak),
			Total:       units.Money(amount),
		}
		// lineSel: 0 nil lines, 1 one line, 3 an empty non-nil slice,
		// anything else that many lines cycling through the components
		// (7 is past the named ones).
		switch n := int(lineSel % 8); n {
		case 0:
		case 3:
			b.Lines = []LineItem{}
		default:
			for i := 0; i < n; i++ {
				b.Lines = append(b.Lines, LineItem{
					Component:   Component(i % 8),
					Description: desc,
					Quantity:    qty,
					Amount:      units.Money(amount / int64(i+1)),
				})
			}
		}
		assertAppendJSONMatches(t, b)
	})
}

func TestDecodeBillErrors(t *testing.T) {
	if _, err := DecodeBill([]byte("not json")); err == nil {
		t.Error("malformed JSON should fail")
	}
	bad := `{"contract":"x","lines":[{"component":"witchcraft","amount":1}]}`
	_, err := DecodeBill([]byte(bad))
	if err == nil || !strings.Contains(err.Error(), "witchcraft") {
		t.Errorf("unknown component should fail naming it, got %v", err)
	}
}

// TestHashSpecCanonical pins the cache-key property the billing service
// relies on: formatting and key order do not change the hash, content
// does.
func TestHashSpecCanonical(t *testing.T) {
	a := &Spec{
		Name:          "site",
		Tariffs:       []TariffSpec{{Type: "fixed", Rate: 0.085}},
		DemandCharges: []DemandChargeSpec{{PricePerKW: 12, NPeaks: 3}},
	}
	ha, err := HashSpec(a)
	if err != nil {
		t.Fatal(err)
	}

	// The same spec parsed from differently formatted JSON with shuffled
	// keys and redundant zero fields hashes identically.
	alt := `{"demand_charges":[{"n_peaks":3,"price_per_kw":12}],` +
		`"tariffs":[{"rate":0.085,"type":"fixed","adder":0}],"name":"site"}`
	parsed, err := ParseSpec([]byte(alt))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := HashSpec(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("hash not canonical: %s != %s", ha, hb)
	}

	// A one-field change moves the hash.
	c := *a
	c.Tariffs = []TariffSpec{{Type: "fixed", Rate: 0.086}}
	hc, err := HashSpec(&c)
	if err != nil {
		t.Fatal(err)
	}
	if hc == ha {
		t.Error("different specs must hash differently")
	}
	if len(ha) != 64 {
		t.Errorf("want hex sha256, got %q", ha)
	}
}

// BenchmarkBillJSONMonthly renders a year of month bills the way a
// monthly response nests them (depth 2, one reused buffer): the encode
// layer of /v1/bill?monthly=1 and of every monthly batch item.
func BenchmarkBillJSONMonthly(b *testing.B) {
	load, err := hpc.SyntheticFacilityLoad(hpc.LoadProfileConfig{
		Start: time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC), Span: 365 * 24 * time.Hour,
		Interval: 15 * time.Minute, Base: 12 * units.Megawatt, PeakToAverage: 1.6, NoiseSigma: 0.02, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	c := &Contract{
		Name: "bench-site",
		Tariffs: []tariff.Tariff{
			tariff.MustNewTOU(calendar.SeasonalDayNight(8, 20, nil), map[string]units.EnergyPrice{
				"summer-peak": 0.04, "peak": 0.02, "offpeak": 0.005,
			}),
		},
		DemandCharges: []*demand.Charge{demand.SimpleCharge(12)},
		Powerbands:    []*demand.Powerband{demand.MustNewPowerband(6*units.Megawatt, 17*units.Megawatt, 0.25, 0.55)},
		Fees:          []FixedFee{{Name: "metering", Amount: units.CurrencyUnits(420)}},
	}
	months, err := BillMonths(c, load, BillingInput{})
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, m := range months {
			if buf, err = m.AppendJSON(buf, 2); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(len(buf)))
}
