package main

// Workload generation. Every workload is a deterministic function of
// the seed: contract shapes are fixed and only their prices and limits
// are drawn, and inline loads come from the benchmark's own generator,
// so the work per request is the same for every seed, only the numbers
// change, and the bytes do not depend on the code under test.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/contract"
	"repro/internal/hpc"
	"repro/internal/serve"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// Seeds. Development and tuning use DevSeed and the seeds near it; a
// later performance claim must also hold on HeldOutSeed, which no
// change should be tuned against.
const (
	DevSeed     = 1
	HeldOutSeed = 7919
)

// Fixed workload parameters. They are part of the benchmark definition:
// changing any of them is a change of the benchmark, not of the code
// it measures.
const (
	inlineSeries   = 8     // distinct inline year series
	inlineSpecs    = 4     // distinct contracts billed against them
	yearSamples    = 35040 // 365 days of 15-minute samples
	batchItems     = 64    // specs per batch request
	batchBodies    = 8     // distinct orderings of the batch spec pool
	monthSpecs     = 512   // month-routed working set (fleet LRU is 2 x 128)
	monthRate      = 500   // month-routed arrivals per second
	optimizeSpecs  = 4     // distinct optimize contracts
	optimizeCands  = 300   // search candidates per optimize request
	optimizeSeed   = 7     // fixed search seed
	sequenceLength = 1 << 14
)

const (
	pathBillMonthly  = "/v1/bill?monthly=1"
	pathBill         = "/v1/bill"
	pathBatchMonthly = "/v1/bill/batch?monthly=1"
	pathOptimize     = "/v1/optimize"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"inline-year", "batch-year", "month-routed", "optimize-year"}

// request is one distinct request the driver may send.
type request struct {
	path string // path and query
	body []byte
	// samples is the number of load samples the request bills.
	samples int
}

// workload is a generated, seeded traffic mix plus the oracle that
// checks the fleet's answers.
type workload struct {
	name string
	// open selects the open loop at rate arrivals per second; otherwise
	// clients closed-loop clients each send the next request as soon as
	// the previous one is answered.
	open    bool
	rate    float64
	clients int
	// minSamples is the number of latency samples a run needs for its
	// reported tail percentile to be meaningful.
	minSamples int
	// subWindows is the most equal parts the measured window is cut
	// into; see endToEnd.
	subWindows int
	reqs       []request
	// seq is the seeded order in which the driver sends reqs; the
	// driver wraps around it.
	seq    []int
	check  *checker
	params map[string]any
}

// newWorkload generates the named workload for seed.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var w *workload
	var err error
	switch name {
	case "inline-year":
		w, err = inlineYear(rng)
	case "batch-year":
		w, err = batchYear(rng)
	case "month-routed":
		w, err = monthRouted(rng)
	case "optimize-year":
		w, err = optimizeYear(rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	w.name = name
	w.seq = make([]int, sequenceLength)
	for i := range w.seq {
		w.seq[i] = rng.Intn(len(w.reqs))
	}
	return w, nil
}

// specJSON mirrors the contract spec wire format. The benchmark keeps
// its own copy so request bytes do not change when the program's Go
// types gain fields.
type specJSON struct {
	Name          string       `json:"name"`
	Tariffs       []tariffJSON `json:"tariffs"`
	DemandCharges []demandJSON `json:"demand_charges,omitempty"`
	Powerbands    []bandJSON   `json:"powerbands,omitempty"`
	Fees          []feeJSON    `json:"fees,omitempty"`
}

type tariffJSON struct {
	Type          string  `json:"type"`
	Rate          float64 `json:"rate,omitempty"`
	DayRate       float64 `json:"day_rate,omitempty"`
	NightRate     float64 `json:"night_rate,omitempty"`
	SummerDayRate float64 `json:"summer_day_rate,omitempty"`
	DayFrom       int     `json:"day_from,omitempty"`
	DayTo         int     `json:"day_to,omitempty"`
}

type demandJSON struct {
	PricePerKW      float64 `json:"price_per_kw"`
	Method          string  `json:"method"`
	NPeaks          int     `json:"n_peaks,omitempty"`
	RatchetFraction float64 `json:"ratchet_fraction,omitempty"`
}

type bandJSON struct {
	LowerKW      float64 `json:"lower_kw,omitempty"`
	UpperKW      float64 `json:"upper_kw"`
	UnderPenalty float64 `json:"under_penalty,omitempty"`
	OverPenalty  float64 `json:"over_penalty"`
}

type feeJSON struct {
	Name   string  `json:"name"`
	Amount float64 `json:"amount"`
}

// draw returns a uniform value in [lo, hi) rounded to four decimals, so
// specs read like contract prices.
func draw(rng *rand.Rand, lo, hi float64) float64 {
	return math.Round((lo+rng.Float64()*(hi-lo))*1e4) / 1e4
}

// genSpec draws one contract of the given shape. The four shapes cover
// the survey's typology branches: fixed and time-of-use energy tariffs,
// n-peak, single-peak and ratchet demand charges, upper and two-sided
// powerbands, and flat fees. Limits assume an 8-18 MW facility.
func genSpec(rng *rand.Rand, name string, shape int) []byte {
	s := specJSON{Name: name}
	fee := feeJSON{Name: "meter fee", Amount: draw(rng, 300, 600)}
	switch shape % 4 {
	case 0:
		s.Tariffs = []tariffJSON{{Type: "fixed", Rate: draw(rng, 0.05, 0.09)}}
		s.DemandCharges = []demandJSON{{PricePerKW: draw(rng, 8, 15), Method: "n-peak-average", NPeaks: 3}}
		s.Powerbands = []bandJSON{{UpperKW: draw(rng, 15000, 17000), OverPenalty: draw(rng, 0.2, 0.5)}}
		s.Fees = []feeJSON{fee}
	case 1:
		s.Tariffs = []tariffJSON{{Type: "tou", DayRate: draw(rng, 0.08, 0.12), NightRate: draw(rng, 0.04, 0.06), DayFrom: 8, DayTo: 20}}
		s.DemandCharges = []demandJSON{{PricePerKW: draw(rng, 10, 14), Method: "ratchet", RatchetFraction: draw(rng, 0.7, 0.9)}}
		s.Fees = []feeJSON{fee}
	case 2:
		s.Tariffs = []tariffJSON{{Type: "tou", DayRate: draw(rng, 0.08, 0.11), NightRate: draw(rng, 0.04, 0.06),
			SummerDayRate: draw(rng, 0.11, 0.14), DayFrom: 7, DayTo: 19}}
		s.DemandCharges = []demandJSON{{PricePerKW: draw(rng, 9, 13), Method: "single-peak"}}
		s.Powerbands = []bandJSON{{LowerKW: draw(rng, 6000, 8000), UpperKW: draw(rng, 16000, 18000),
			UnderPenalty: draw(rng, 0.05, 0.1), OverPenalty: draw(rng, 0.3, 0.5)}}
	default:
		s.Tariffs = []tariffJSON{{Type: "fixed", Rate: draw(rng, 0.06, 0.1)}}
		s.DemandCharges = []demandJSON{{PricePerKW: draw(rng, 6, 10), Method: "ratchet", RatchetFraction: draw(rng, 0.6, 0.8)}}
		s.Powerbands = []bandJSON{{UpperKW: draw(rng, 16000, 19000), OverPenalty: draw(rng, 0.25, 0.45)}}
		s.Fees = []feeJSON{fee}
	}
	data, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return data
}

// genYear draws one year of 15-minute facility load in kW: a base
// level, a diurnal swing, a slowly wandering job mix, meter noise and
// occasional full-machine runs.
func genYear(rng *rand.Rand) []float64 {
	base := draw(rng, 8000, 14000)
	swing := draw(rng, 0.02, 0.08)
	peak := draw(rng, 1.3, 1.6)
	kw := make([]float64, yearSamples)
	mix := 0.0
	burst := 0
	for i := range kw {
		mix = 0.995*mix + 0.05*rng.NormFloat64()
		if burst == 0 && rng.Float64() < 0.002 {
			burst = 8 + rng.Intn(24)
		}
		level := 1 + swing*math.Sin(2*math.Pi*float64(i%96)/96) + 0.1*mix
		if burst > 0 {
			level = peak
			burst--
		}
		kw[i] = math.Max(base*level*(1+0.01*rng.NormFloat64()), 0)
	}
	return kw
}

// yearStart is the first instant of the inline year series.
var yearStart = time.Date(2017, time.January, 1, 0, 0, 0, 0, time.UTC)

// seriesJSON renders an inline load.series object.
func seriesJSON(kw []float64) []byte {
	var b bytes.Buffer
	b.Grow(len(kw) * 20)
	b.WriteString(`{"start":"`)
	b.WriteString(yearStart.Format(time.RFC3339))
	b.WriteString(`","interval_seconds":900,"kw":[`)
	for i, v := range kw {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	b.WriteString("]}")
	return b.Bytes()
}

// compile builds an engine from spec JSON through the public API, as a
// backend does on a cache miss.
func compile(raw []byte) (*contract.Engine, error) {
	spec, err := contract.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	c, err := spec.Build(contract.BuildContext{})
	if err != nil {
		return nil, err
	}
	return contract.NewEngine(c)
}

// namedLoad materializes one of the server's named profiles through the
// public API.
func namedLoad(name string) (*timeseries.PowerSeries, error) {
	cfg, ok := serve.NamedProfiles()[name]
	if !ok {
		return nil, fmt.Errorf("no named profile %q", name)
	}
	return hpc.SyntheticFacilityLoad(cfg)
}

// monthlyTotal bills load month by month and returns the grand total the
// monthly response must carry.
func monthlyTotal(raw []byte, load *timeseries.PowerSeries) (float64, error) {
	eng, err := compile(raw)
	if err != nil {
		return 0, err
	}
	bills, err := eng.BillMonths(load, contract.BillingInput{})
	if err != nil {
		return 0, err
	}
	return contract.TotalOf(bills).Float(), nil
}

// inlineYear: closed loop, 2 clients, monthly bills of inline year
// series. Decode and load conversion dominate the request.
func inlineYear(rng *rand.Rand) (*workload, error) {
	specs := make([][]byte, inlineSpecs)
	for i := range specs {
		specs[i] = genSpec(rng, fmt.Sprintf("inline-%d", i), i)
	}
	w := &workload{clients: 2, minSamples: 100, subWindows: 5}
	var want []float64
	for s := 0; s < inlineSeries; s++ {
		kw := genYear(rng)
		series := seriesJSON(kw)
		samples := make([]units.Power, len(kw))
		for i, v := range kw {
			samples[i] = units.Power(v)
		}
		load, err := timeseries.NewPower(yearStart, 15*time.Minute, samples)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			body := make([]byte, 0, len(series)+len(spec)+64)
			body = append(body, `{"contract":`...)
			body = append(body, spec...)
			body = append(body, `,"load":{"series":`...)
			body = append(body, series...)
			body = append(body, "}}"...)
			w.reqs = append(w.reqs, request{path: pathBillMonthly, body: body, samples: yearSamples})
			total, err := monthlyTotal(spec, load)
			if err != nil {
				return nil, err
			}
			want = append(want, total)
		}
	}
	w.check = newChecker(len(w.reqs), func(i int, resp []byte) error {
		return checkMonthly(resp, want[i])
	})
	w.params = map[string]any{
		"loop": "closed", "clients": w.clients, "path": pathBillMonthly,
		"series": inlineSeries, "specs": inlineSpecs, "samples_per_series": yearSamples,
		"distinct_bodies": len(w.reqs),
	}
	return w, nil
}

// batchYear: closed loop, 2 clients, year-in-life billed monthly
// against 64 specs per request. Evaluate and per-item encode carry it.
func batchYear(rng *rand.Rand) (*workload, error) {
	pool := make([][]byte, batchItems)
	want := make(map[string]float64, batchItems)
	load, err := namedLoad("year-in-life")
	if err != nil {
		return nil, err
	}
	for i := range pool {
		pool[i] = genSpec(rng, fmt.Sprintf("batch-%02d", i), i)
		total, err := monthlyTotal(pool[i], load)
		if err != nil {
			return nil, err
		}
		want[fmt.Sprintf("batch-%02d", i)] = total
	}
	w := &workload{clients: 2, minSamples: 100, subWindows: 5}
	orders := make([][]int, batchBodies)
	for b := range orders {
		orders[b] = rng.Perm(batchItems)
		body := []byte(`{"contracts":[`)
		for k, idx := range orders[b] {
			if k > 0 {
				body = append(body, ',')
			}
			body = append(body, pool[idx]...)
		}
		body = append(body, `],"load":{"profile":"year-in-life"}}`...)
		w.reqs = append(w.reqs, request{path: pathBatchMonthly, body: body, samples: batchItems * load.Len()})
	}
	w.check = newChecker(len(w.reqs), func(i int, resp []byte) error {
		return checkBatch(resp, orders[i], want)
	})
	w.params = map[string]any{
		"loop": "closed", "clients": w.clients, "path": pathBatchMonthly, "profile": "year-in-life",
		"items_per_request": batchItems, "spec_pool": batchItems, "distinct_bodies": batchBodies,
	}
	return w, nil
}

// monthRouted: open loop, single-period bills of quickstart-month over
// a working set larger than the fleet's engine caches. Per-request
// fixed costs and cache misses dominate; queueing shows in the tail.
func monthRouted(rng *rand.Rand) (*workload, error) {
	load, err := namedLoad("quickstart-month")
	if err != nil {
		return nil, err
	}
	w := &workload{open: true, rate: monthRate, clients: 2, minSamples: 1000, subWindows: 10}
	want := make([][]byte, monthSpecs)
	for i := 0; i < monthSpecs; i++ {
		spec := genSpec(rng, fmt.Sprintf("month-%03d", i), i)
		body := make([]byte, 0, len(spec)+64)
		body = append(body, `{"contract":`...)
		body = append(body, spec...)
		body = append(body, `,"load":{"profile":"quickstart-month"}}`...)
		w.reqs = append(w.reqs, request{path: pathBill, body: body, samples: load.Len()})
		eng, err := compile(spec)
		if err != nil {
			return nil, err
		}
		bill, err := eng.Bill(load, contract.BillingInput{})
		if err != nil {
			return nil, err
		}
		if want[i], err = bill.JSON(); err != nil {
			return nil, err
		}
	}
	w.check = newChecker(len(w.reqs), nil)
	for i, b := range want {
		w.check.ref[i] = b
	}
	w.params = map[string]any{
		"loop": "open", "connections": w.clients, "rate_per_s": w.rate, "path": pathBill,
		"profile": "quickstart-month", "specs": monthSpecs,
	}
	return w, nil
}

// optimizeYear: closed loop, 1 client, a fixed-seed annealing search on
// year-in-life. It reaches billing through incremental monthly re-bills.
func optimizeYear(rng *rand.Rand) (*workload, error) {
	w := &workload{clients: 1, minSamples: 100, subWindows: 5}
	for i := 0; i < optimizeSpecs; i++ {
		// One shape (n-peak demand charge and an upper powerband) and a
		// fixed envelope, so the search's length does not depend on the
		// seed; only the prices do.
		spec := genSpec(rng, fmt.Sprintf("optimize-%d", i), 0)
		body := fmt.Sprintf(`{"contract":%s,"load":{"profile":"year-in-life"},`+
			`"flexibility":{"deferrable_fraction":0.1,"partial_fraction":0.15},"search":{"seed":%d,"candidates":%d}}`,
			spec, optimizeSeed, optimizeCands)
		w.reqs = append(w.reqs, request{path: pathOptimize, body: []byte(body), samples: yearSamples})
	}
	w.check = newChecker(len(w.reqs), func(_ int, resp []byte) error {
		_, err := checkOptimize(resp)
		return err
	})
	w.params = map[string]any{
		"loop": "closed", "clients": w.clients, "path": pathOptimize, "profile": "year-in-life",
		"specs": optimizeSpecs, "candidates": optimizeCands, "search_seed": optimizeSeed,
	}
	return w, nil
}
