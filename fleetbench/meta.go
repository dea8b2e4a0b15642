package main

// Run metadata, result output, and the compare command that refuses to
// let results from different host classes pass for a regression.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	HeldOut    bool           `json:"held_out_seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Setups     int            `json:"setups"`
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Params     map[string]any `json:"params"`
	Started    string         `json:"started"`
}

func newMeta(cfg config, w *workload) meta {
	return meta{
		Workload:   w.name,
		Seed:       cfg.seed,
		HeldOut:    cfg.seed == HeldOutSeed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Setups:     cfg.setups,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Params:     w.params,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// hostClass names what a result's numbers depend on besides the code.
func (m meta) hostClass() string {
	return fmt.Sprintf("%s, %s/%s, %d CPUs, GOMAXPROCS %d, %s",
		m.CPUModel, m.GOOS, m.GOARCH, m.NProc, m.GOMAXPROCS, m.GoVersion)
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "-dirty"
	}
	return rev
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set (VmHWM), falling back
// to the memory the Go runtime obtained from the OS.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// report prints the run for a reader, saves the full result under
// outDir, and ends with the one-line JSON result.
func (r *result) report(out io.Writer, outDir string) error {
	m := r.Meta
	mode := "end-to-end"
	if m.Trace {
		mode = "traced"
	}
	fmt.Fprintf(out, "fleetbench %s seed=%d (held-out %v) %ds %s run\n", m.Workload, m.Seed, m.HeldOut, m.Seconds, mode)
	fmt.Fprintf(out, "  commit %s; %s\n", m.Commit, m.hostClass())
	params, _ := json.Marshal(m.Params)
	fmt.Fprintf(out, "  params %s\n", params)
	printMetrics(out, r.Metrics)
	if len(r.Reported) > 0 {
		fmt.Fprintln(out, "  reported, not bounded:")
		printMetrics(out, r.Reported)
	}
	if len(r.Traced) > 0 {
		fmt.Fprintln(out, "  traced window, end to end (differs from the untraced run by the tracing overhead):")
		printMetrics(out, r.Traced)
	}
	for _, n := range sortedKeys(r.Parts) {
		fmt.Fprintf(out, "  %-28s %.4g\n", n+" by part", r.Parts[n])
	}
	fmt.Fprintf(out, "  %-28s %.6g (%d failed of %d attempted; %d latency samples)\n",
		"error_rate", r.ErrorRate, r.Failed, r.Attempted, r.Samples)
	fmt.Fprintf(out, "  %-28s %.4g ms, median of %d (the calibration kernel's CPU time; lower is a faster host)\n",
		"host_ref_ms", median(append([]float64(nil), r.HostRefMs...)), len(r.HostRefMs))
	var speed, granted [2][]float64
	for k, ss := range [][]sliceScale{r.Scale.Setups, r.Scale.Slices} {
		for _, s := range ss {
			speed[k], granted[k] = append(speed[k], s.Speed), append(granted[k], s.Granted)
		}
	}
	fmt.Fprintf(out, "  %-28s set-ups %.4g, slices %.4g (x the reference host; *_ref and setup_s are scaled by it)\n",
		"host_speed", speed[0], speed[1])
	fmt.Fprintf(out, "  %-28s set-ups %.4g, slices %.4g (of the CPU time asked for, the host gave)\n",
		"granted_share", granted[0], granted[1])
	if r.FirstErr != "" {
		fmt.Fprintf(out, "  first error: %s\n", r.FirstErr)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%v-%d.json", m.Workload, m.Seed, m.Trace, time.Now().UnixNano()))
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  result saved to %s\n", path)

	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", last)
	return err
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %-14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// hostDriftWarn is the change in host_ref_ms between two sets of
// results above which compare warns that the host, not only the code,
// differed.
const hostDriftWarn = 0.10

// compareMain prints per-workload medians of two sets of saved results
// and their change. Results recorded on different host classes get a
// loud warning: their difference says nothing about the code.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fleetbench compare <result.json|dir> <result.json|dir>")
		return 2
	}
	var sets [2][]result
	for k, arg := range args {
		rs, err := loadResults(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetbench compare:", err)
			return 1
		}
		if len(rs) == 0 {
			fmt.Fprintf(os.Stderr, "fleetbench compare: no results in %s\n", arg)
			return 1
		}
		sets[k] = rs
	}

	classes := [2]map[string]bool{{}, {}}
	for k, rs := range sets {
		for _, r := range rs {
			classes[k][r.Meta.hostClass()] = true
		}
	}
	if !sameKeys(classes[0], classes[1]) || len(classes[0]) > 1 {
		banner := strings.Repeat("!", 78)
		msg := fmt.Sprintf("%s\nWARNING: these results were recorded on different host classes.\n"+
			"A difference below is NOT evidence of a regression or a gain in the code.\n"+
			"  A: %s\n  B: %s\nRe-run both commits on one host before drawing any conclusion.\n%s\n",
			banner, strings.Join(sortedKeys(classes[0]), " | "), strings.Join(sortedKeys(classes[1]), " | "), banner)
		fmt.Fprint(os.Stderr, msg)
		fmt.Print(msg)
	}

	// Host speed: the same host runs tens of percent faster or slower
	// from one minute to the next, which a bound on a time cannot tell
	// from a change in the code.
	var refs [2][]float64
	for k, rs := range sets {
		for _, r := range rs {
			refs[k] = append(refs[k], r.HostRefMs...)
		}
	}
	if len(refs[0]) > 0 && len(refs[1]) > 0 {
		ra, rb := median(refs[0]), median(refs[1])
		fmt.Printf("host_ref_ms median: A %.4g, B %.4g (%+.1f%%; lower is a faster host)\n", ra, rb, (rb/ra-1)*100)
		if math.Abs(rb/ra-1) > hostDriftWarn {
			dir := "faster"
			if rb > ra {
				dir = "slower"
			}
			banner := strings.Repeat("!", 78)
			msg := fmt.Sprintf("%s\nWARNING: the host ran %.0f%% %s for B than for A (host_ref_ms).\n"+
				"A change in a time metric of that size or less is unresolved, not a regression or a gain.\n"+
				"Re-run both commits interleaved, one run of each in turn.\n%s\n",
				banner, math.Abs(rb/ra-1)*100, dir, banner)
			fmt.Fprint(os.Stderr, msg)
			fmt.Print(msg)
		}
	}

	type key struct {
		workload string
		trace    bool
	}
	values := [2]map[key]map[string][]float64{{}, {}}
	units := map[string]string{}
	for k, rs := range sets {
		for _, r := range rs {
			kk := key{r.Meta.Workload, r.Meta.Trace}
			if values[k][kk] == nil {
				values[k][kk] = map[string][]float64{}
			}
			for n, m := range r.Metrics {
				values[k][kk][n] = append(values[k][kk][n], m.Value)
				units[n] = m.Unit
			}
		}
	}
	var keys []key
	for kk := range values[0] {
		if values[1][kk] != nil {
			keys = append(keys, kk)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	for _, kk := range keys {
		fmt.Printf("%s (traced %v)\n", kk.workload, kk.trace)
		fmt.Printf("  %-28s %14s %14s %9s  %s\n", "metric", "A median", "B median", "change", "runs A/B")
		for _, n := range sortedKeys(values[0][kk]) {
			a, b := values[0][kk][n], values[1][kk][n]
			if len(b) == 0 {
				continue
			}
			ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
			change := "n/a"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", (mb/ma-1)*100)
			}
			fmt.Printf("  %-28s %14.6g %14.6g %9s  %d/%d %s\n", n, ma, mb, change, len(a), len(b), units[n])
		}
	}
	return 0
}

// loadResults reads one saved result file, or every result-*.json in a
// directory.
func loadResults(path string) ([]result, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "result-*.json")); err != nil {
			return nil, err
		}
	}
	var out []result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
