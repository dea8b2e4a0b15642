// Command fleetbench is the repository's end-to-end benchmark. It
// starts an in-process fleet on loopback (one route.Router in front of
// two serve.Server backends), drives one seeded workload through it
// with at most nproc connections, checks every response, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as a
// JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash fleetbench/run.sh --workload inline-year --seed 1 --seconds 20 --trace 0
//	bash fleetbench/run.sh compare <result.json|dir> <result.json|dir>
//
// See fleetbench/README.md for the workloads, metrics and layer map.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// lagLimitMs is the open-loop validity bound: a run whose generator sent
// half its requests later than this after they were due (with a
// connection free) fell behind its schedule and did not offer the load
// it claims, so it is not reported. Occasional late sends, which host
// scheduling stalls cause, show in driver.lag_ms_p99 and, because
// latency runs from the due time, in the latency tail.
const lagLimitMs = 1

// setups is how many times a run builds and warms the fleet; setup_s is
// the median of their times, each scaled to the reference host (see
// calib.go), and the last fleet is measured.
const setups = 7

// errInvalid marks a run that completed but cannot be reported.
var errInvalid = errors.New("invalid run")

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int
	outDir   string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	cfg := config{setups: setups}
	var trace int
	fs := flag.NewFlagSet("fleetbench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	fs.Int64Var(&cfg.seed, "seed", DevSeed, fmt.Sprintf("input seed (%d is held out for confirming claims)", HeldOutSeed))
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "results"), "directory for the full result and span files")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits with status 2
	cfg.trace = trace == 1
	if cfg.workload == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fs.Usage()
		os.Exit(2)
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	if err := res.report(os.Stdout, cfg.outDir); err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	Meta      meta      `json:"meta"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	FirstErr  string    `json:"first_error,omitempty"`
	ErrorRate float64   `json:"error_rate"`
	Samples   int       `json:"latency_samples"`
	SetupS    []float64 `json:"setup_s_each"`
	// HostRefMs are the calibration kernel's CPU times over the run, and
	// Scale what the run made of them and of the host's steal time (see
	// calib.go).
	HostRefMs []float64 `json:"host_ref_ms"`
	Scale     scale     `json:"scale"`
	// Metrics are the numbers BENCHMARK.json bounds: the end-to-end
	// metrics, or with --trace 1 the per-layer ones.
	Metrics map[string]metric `json:"metrics"`
	// Reported are end-to-end numbers printed but not bounded: the
	// latency percentiles.
	Reported map[string]metric `json:"reported,omitempty"`
	// Traced is a traced run's end-to-end view of its traced window.
	Traced map[string]metric `json:"traced,omitempty"`
	// Parts holds the per-part values behind the windowed medians.
	Parts map[string][]float64 `json:"parts"`
}

// bounded names the end-to-end metrics BENCHMARK.json bounds. Their
// times are scaled to the reference host (see calib.go); the times as
// measured, and the latency percentiles, are reported only: on a 2-vCPU
// VM they move with the host's speed and scheduling stalls by more than
// any allowed bound (month-routed's p50 is mostly wake-up time).
var bounded = map[string]bool{
	"throughput_rps_ref": true, "cpu_ms_per_req_ref": true,
	"alloc_mb_per_req": true, "peak_rss_mb": true, "setup_s": true,
}

// split separates the bounded metrics from the reported ones.
func split(all map[string]metric) (gated, reported map[string]metric) {
	gated, reported = map[string]metric{}, map[string]metric{}
	for n, m := range all {
		if bounded[n] {
			gated[n] = m
		} else {
			reported[n] = m
		}
	}
	return gated, reported
}

func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	conns := min(w.clients, runtime.NumCPU())
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set up the fleet cfg.setups times: start it, warm every distinct
	// request once (which also verifies the answers), and keep the last.
	var f *fleet
	var d *driver
	var setup []float64
	var setupScale []sliceScale
	cal := &calib{}
	cal.sample()
	for k := 0; k < cfg.setups; k++ {
		if f != nil {
			d.close()
			if err := f.stop(); err != nil {
				return nil, fmt.Errorf("stop fleet: %w", err)
			}
		}
		// Every set-up starts from the same heap, free of the last
		// fleet's garbage.
		runtime.GC()
		k0 := hostTicks()
		t0 := time.Now()
		if f, err = startFleet(tr); err != nil {
			return nil, err
		}
		d = newDriver(w, f.routerURL, conns)
		if err := d.warm(); err != nil {
			d.close()
			_ = f.stop()
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		granted := hostTicks().sub(k0).granted()
		cal.sample()
		setupScale = append(setupScale, sliceScale{Speed: cal.speed(k), Granted: granted})
	}
	defer func() {
		d.close()
		// The run has measured what it reports; a fleet that fails to
		// stop cleanly now changes none of it.
		_ = f.stop()
	}()

	res := &result{
		Meta:   newMeta(cfg, w),
		SetupS: setup,
		Scale:  scale{Setups: setupScale},
		Parts:  map[string][]float64{},
	}
	window := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		// The window is measured in slices, with the fleet idle between
		// them while the calibration kernel runs.
		ph, mem := newPhase(len(w.reqs)), memDelta{}
		for k := 0; k < w.subWindows; k++ {
			sp, sm := measure(d, window/time.Duration(w.subWindows))
			ph.then(sp)
			mem.add(sm)
			cal.sample()
			res.Scale.Slices = append(res.Scale.Slices, newSliceScale(cal, sp, sm))
		}
		res.HostRefMs = cal.all(0)
		res.fill(ph)
		if err := validate(w, ph); err != nil {
			return nil, err
		}
		res.Metrics, res.Reported = split(endToEnd(w, ph, mem, setup, res.Scale, res.Parts))
		return res, nil
	}

	// Traced run: twice the window, cut into slices that alternate
	// untraced and traced, bracketed by /metrics scrapes, then the
	// replay. Each slice ends when its last request is answered, so every
	// request runs wholly traced or wholly untraced, and the host's drift
	// over the run moves both halves alike.
	scraper := &http.Client{Timeout: 10 * time.Second}
	defer scraper.CloseIdleConnections()
	before, err := scrapeFleet(scraper, f)
	if err != nil {
		return nil, err
	}
	n := len(w.reqs)
	all, ph := newPhase(n), newPhase(n)
	var mem memDelta
	var plainCPU, tracedCPU []float64
	slices := 2 * w.subWindows
	for k := 0; k < slices; k++ {
		on := k%2 == 1
		tr.on.Store(on)
		sp, sm := measure(d, 2*window/time.Duration(slices))
		tr.on.Store(false)
		cpu := ratio(float64(sm.cpu)/float64(time.Millisecond), float64(sp.attempted))
		all.then(sp)
		cal.sample()
		if !on {
			plainCPU = append(plainCPU, cpu)
			continue
		}
		tracedCPU = append(tracedCPU, cpu)
		mem.add(sm)
		ph.then(sp)
		res.Scale.Slices = append(res.Scale.Slices, newSliceScale(cal, sp, sm))
	}
	res.HostRefMs = cal.all(0)
	after, err := scrapeFleet(scraper, f)
	if err != nil {
		return nil, err
	}
	rp, err := replay(w, f.backendURLs, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.fill(all)
	if err := validate(w, ph); err != nil {
		return nil, err
	}
	overhead := (ratio(median(tracedCPU), median(plainCPU)) - 1) * 100
	res.Metrics = perLayer(w, all, mem, ph.attempted, tr, before, after, rp, overhead)
	res.Traced = endToEnd(w, ph, mem, setup, res.Scale, res.Parts)
	return res, nil
}

// memDelta is the runtime's and the kernel's view of one measured
// window.
type memDelta struct {
	alloc   uint64 // bytes allocated
	gcs     uint32
	pauseNs uint64
	cpu     time.Duration // process user + system CPU time
	ticks   ticks         // the VM's CPU ticks, busy and stolen
}

// measure runs one window after a full GC, so every window starts from
// the same heap state, and returns the allocation it caused.
func measure(d *driver, window time.Duration) (*phase, memDelta) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	k0 := hostTicks()
	ph := d.run(window)
	k1 := hostTicks()
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return ph, memDelta{
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		gcs:     m1.NumGC - m0.NumGC,
		pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		cpu:     c1 - c0,
		ticks:   k1.sub(k0),
	}
}

func (m *memDelta) add(o memDelta) {
	m.alloc += o.alloc
	m.gcs += o.gcs
	m.pauseNs += o.pauseNs
	m.cpu += o.cpu
	m.ticks.busy += o.ticks.busy
	m.ticks.stolen += o.ticks.stolen
}

// scale is how a run's measured times become the reference host's,
// for each set-up and for each measured slice of the window (the traced
// slices, in a traced run).
type scale struct {
	Setups []sliceScale `json:"setups"`
	Slices []sliceScale `json:"slices"`
}

// sliceScale scales one stretch of a run: a CPU time is multiplied by
// Speed, the host's speed from the calibration points either side of
// it, and a time on the clock by Speed and by Granted, the share of CPU
// time the host granted while it ran. CPUMs is the slice's process CPU
// time per request.
type sliceScale struct {
	Speed   float64 `json:"speed"`
	Granted float64 `json:"granted_share"`
	CPUMs   float64 `json:"cpu_ms_per_req,omitempty"`
}

// newSliceScale scales the slice that ended just before c's last point.
func newSliceScale(c *calib, ph *phase, m memDelta) sliceScale {
	return sliceScale{
		Speed:   c.speed(len(c.pts) - 2),
		Granted: m.ticks.granted(),
		CPUMs:   ratio(float64(m.cpu)/float64(time.Millisecond), float64(ph.attempted)),
	}
}

func (r *result) fill(ph *phase) {
	r.Attempted = ph.attempted
	r.Failed = ph.failed()
	r.Correct = ph.wrong == 0
	r.ErrorRate = ratio(float64(ph.failed()), float64(ph.attempted))
	r.Samples = len(ph.samples)
	if ph.firstErr != nil {
		r.FirstErr = ph.firstErr.Error()
	}
}

// validate rejects a window too short for its tail percentile, or an
// open-loop window whose generator fell behind its schedule.
func validate(w *workload, ph *phase) error {
	if ph.attempted == 0 {
		return fmt.Errorf("%w: no request completed", errInvalid)
	}
	if len(ph.samples) < w.minSamples {
		return fmt.Errorf("%w: %d latency samples, the workload needs %d; run longer",
			errInvalid, len(ph.samples), w.minSamples)
	}
	if w.open {
		if lag := median(ph.lag); lag > lagLimitMs {
			return fmt.Errorf("%w: generator lag p50 %.3f ms exceeds %d ms", errInvalid, lag, lagLimitMs)
		}
	}
	return nil
}

// endToEnd computes the metrics a user of the fleet sees. Each is the
// median of its values over equal parts of the window, so a burst of
// interference from outside the benchmark moves one part, not the
// result; parts, when non-nil, receives the per-part values in window
// order. A latency percentile uses as many parts (up to the workload's
// subWindows) as keep at least ten samples beyond it in each part.
// The *_ref metrics and setup_s are the measured times scaled by sc to
// the reference host, slice by slice (ph's parts are sc's slices); the
// other names are as measured.
func endToEnd(w *workload, ph *phase, mem memDelta, setup []float64, sc scale, parts map[string][]float64) map[string]metric {
	var setupRef, cpuRef []float64
	for k, s := range sc.Setups {
		setupRef = append(setupRef, setup[k]*s.Speed*s.Granted)
	}
	for _, s := range sc.Slices {
		cpuRef = append(cpuRef, s.CPUMs*s.Speed)
	}
	out := map[string]metric{
		"alloc_mb_per_req":   {ratio(float64(mem.alloc), float64(ph.attempted)) / (1 << 20), "MiB"},
		"cpu_ms_per_req":     {ratio(float64(mem.cpu)/float64(time.Millisecond), float64(ph.attempted)), "ms"},
		"cpu_ms_per_req_ref": {median(cpuRef), "ms"},
		"peak_rss_mb":        {peakRSSMiB(), "MiB"},
		"setup_s":            {median(setupRef), "s"},
		"setup_s_raw":        {median(append([]float64(nil), setup...)), "s"},
	}
	byPart := func(name, unit string, k int, f func(from, to time.Duration) float64) {
		part := ph.window / time.Duration(k)
		var vs []float64
		for j := 0; j < k; j++ {
			vs = append(vs, f(time.Duration(j)*part, time.Duration(j+1)*part))
		}
		if parts != nil {
			parts[name] = append([]float64(nil), vs...)
		}
		out[name] = metric{median(vs), unit}
	}
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		k := min(max(int(float64(len(ph.samples))*(1-p.q)/10), 1), w.subWindows)
		byPart(p.name, "ms", k, func(from, to time.Duration) float64 {
			return quantile(ph.latencies(from, to), p.q)
		})
	}
	if w.open {
		// The schedule fixes the offered rate, so per-part counts would
		// read the rate itself; what the fleet delivered is the window's
		// correct answers over the time until the last one.
		// A faster or slower host does not change that rate, so it is
		// not scaled.
		out["throughput_rps"] = metric{ratio(float64(ph.ok), ph.last.Seconds()), "1/s"}
		out["throughput_rps_ref"] = out["throughput_rps"]
	} else {
		byPart("throughput_rps", "1/s", w.subWindows, func(from, to time.Duration) float64 {
			return float64(ph.okIn(from, to)) / (to - from).Seconds()
		})
		slice := ph.window / time.Duration(len(sc.Slices))
		var ref []float64
		for k, s := range sc.Slices {
			from := time.Duration(k) * slice
			ok := float64(ph.okIn(from, from+slice)) / slice.Seconds()
			ref = append(ref, ratio(ok, s.Speed*s.Granted))
		}
		out["throughput_rps_ref"] = metric{median(ref), "1/s"}
	}
	return out
}
