package main

// The traced run's three sources of per-layer numbers, all outside the
// program: spans from the benchmark's own handler wrappers, deltas of
// the counters and stage histograms the fleet exports on /metrics, and
// a replay of each distinct request body through the public functions
// behind the stages serve does not instrument.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contract"
	"repro/internal/hpc"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/timeseries"
	"repro/internal/units"
)

const layerRoute = "route"

// span is one handler invocation, in nanoseconds since the tracer began.
type span struct {
	ID    string `json:"id"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer records a span per request at each layer boundary while on.
// Spans stay in memory until the run ends.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// wrap records h's invocations under layer. A nil tracer returns h.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Since(t.base)
		h.ServeHTTP(w, r)
		end := time.Since(t.base)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Layer: layer, Start: int64(start), End: int64(end)})
		t.mu.Unlock()
	})
}

// layerTimes joins spans by request ID. For each request the router
// handled it returns the router's self time (its span minus the part
// its backend child spans cover, hedges included) and the backend
// handler time of each child, in ms.
func (t *tracer) layerTimes() (routeSelf, backend []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[string][]span)
	for _, s := range t.spans {
		byID[s.ID] = append(byID[s.ID], s)
	}
	for _, group := range byID {
		var parent *span
		var children []span
		for i := range group {
			if group[i].Layer == layerRoute {
				parent = &group[i]
			} else {
				children = append(children, group[i])
				backend = append(backend, float64(group[i].End-group[i].Start)/1e6)
			}
		}
		if parent == nil {
			continue
		}
		self := parent.End - parent.Start - covered(parent.Start, parent.End, children)
		routeSelf = append(routeSelf, float64(self)/1e6)
	}
	return routeSelf, backend
}

// covered is the length of [lo, hi) that the union of spans covers.
func covered(lo, hi int64, spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promSet is one /metrics exposition: series ("name{labels}") to value.
type promSet map[string]float64

// scrape fetches and parses one /metrics page.
func scrape(client *http.Client, base string) (promSet, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	out := promSet{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every series of the named metric.
func (p promSet) family(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// stage returns a stage histogram's sum (seconds) and count.
func (p promSet) stage(name string) (sum, count float64) {
	label := fmt.Sprintf("{stage=%q}", name)
	return p["scserved_stage_seconds_sum"+label], p["scserved_stage_seconds_count"+label]
}

// fleetMetrics is one scrape of the router and every backend.
type fleetMetrics struct {
	router   promSet
	backends promSet // summed over backends
}

func scrapeFleet(client *http.Client, f *fleet) (*fleetMetrics, error) {
	fm := &fleetMetrics{backends: promSet{}}
	var err error
	if fm.router, err = scrape(client, f.routerURL); err != nil {
		return nil, err
	}
	for _, u := range f.backendURLs {
		p, err := scrape(client, u)
		if err != nil {
			return nil, err
		}
		for k, v := range p {
			fm.backends[k] += v
		}
	}
	return fm, nil
}

// delta returns after minus before, series by series.
func delta(before, after promSet) promSet {
	out := promSet{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// replayTimes are per-stage durations in ms from replaying request
// bodies through the public functions behind each stage.
type replayTimes struct {
	key, decode, load, compile, evaluate []float64
}

// replay runs each distinct request body through route's key
// derivation, serve's decode and load resolution, the contract compile
// and the billing evaluation, in passes over the bodies until budget is
// spent (at least one pass).
func replay(w *workload, backends []string, budget time.Duration) (*replayTimes, error) {
	rt := &replayTimes{}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for i := range w.reqs {
			if err := rt.one(w.reqs[i], backends); err != nil {
				return nil, fmt.Errorf("replay request %d: %w", i, err)
			}
		}
	}
	return rt, nil
}

func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func (rt *replayTimes) one(rq request, backends []string) error {
	ctx := context.Background()

	// Router: envelope parse, spec parse, canonical hash, ring rank.
	t := time.Now()
	var env struct {
		Contract  json.RawMessage   `json:"contract"`
		Contracts []json.RawMessage `json:"contracts"`
	}
	if err := json.Unmarshal(rq.body, &env); err != nil {
		return err
	}
	raw := env.Contract
	if len(raw) == 0 && len(env.Contracts) > 0 {
		raw = env.Contracts[0]
	}
	spec, err := contract.ParseSpec(raw)
	if err != nil {
		return err
	}
	key, err := contract.HashSpec(spec)
	if err != nil {
		return err
	}
	_ = route.Rank(backends, key)
	rt.key = append(rt.key, since(t))

	// Serve: decode into the endpoint's request type.
	var ls serve.LoadSpec
	var specs []json.RawMessage
	t = time.Now()
	switch {
	case strings.HasPrefix(rq.path, "/v1/bill/batch"):
		var req serve.BatchRequest
		if err := json.Unmarshal(rq.body, &req); err != nil {
			return err
		}
		ls, specs = *req.Load, req.Contracts
	case strings.HasPrefix(rq.path, "/v1/optimize"):
		var req serve.OptimizeRequest
		if err := json.Unmarshal(rq.body, &req); err != nil {
			return err
		}
		ls, specs = req.Load, []json.RawMessage{req.Contract}
	default:
		var req serve.BillRequest
		if err := json.Unmarshal(rq.body, &req); err != nil {
			return err
		}
		ls, specs = req.Load, []json.RawMessage{req.Contract}
	}
	rt.decode = append(rt.decode, since(t))

	// Serve: load resolution.
	t = time.Now()
	var load *timeseries.PowerSeries
	if s := ls.Series; s != nil {
		samples := make([]units.Power, len(s.KW))
		for i, v := range s.KW {
			samples[i] = units.Power(v)
		}
		load, err = timeseries.NewPower(s.Start, time.Duration(s.IntervalSeconds)*time.Second, samples)
	} else {
		load, err = hpc.SyntheticFacilityLoad(serve.NamedProfiles()[ls.Profile])
	}
	if err != nil {
		return err
	}
	rt.load = append(rt.load, since(t))

	// Contract: build and compile each spec (parsing is the router's and
	// the decode's share, so it runs outside the timer).
	items := make([]contract.BatchItem, len(specs))
	for k, raw := range specs {
		spec, err := contract.ParseSpec(raw)
		if err != nil {
			return err
		}
		t = time.Now()
		c, err := spec.Build(contract.BuildContext{})
		if err != nil {
			return err
		}
		eng, err := contract.NewEngine(c)
		if err != nil {
			return err
		}
		rt.compile = append(rt.compile, since(t))
		items[k] = contract.BatchItem{Engine: eng, Load: load}
	}

	// Billing: the evaluation the endpoint runs (the optimizer's initial
	// full pass for optimize).
	t = time.Now()
	switch {
	case len(items) > 1:
		for _, out := range contract.BillBatch(ctx, items, contract.BillingInput{}, contract.BatchOptions{
			Monthly: true, Workers: runtime.GOMAXPROCS(0),
		}) {
			if out.Err != nil {
				return out.Err
			}
		}
	case rq.path == pathBill:
		_, err = items[0].Engine.BillCtx(ctx, load, contract.BillingInput{})
	default:
		_, err = items[0].Engine.BillMonthsCtx(ctx, load, contract.BillingInput{}, 0)
	}
	if err != nil {
		return err
	}
	rt.evaluate = append(rt.evaluate, since(t))
	return nil
}
