package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"
)

// sequenceHash digests the byte-exact request sequence a workload sends:
// the distinct requests in order, then the seeded send order.
func sequenceHash(w *workload) string {
	h := sha256.New()
	for _, rq := range w.reqs {
		h.Write([]byte(rq.path + "\n" + strconv.Itoa(len(rq.body)) + "\n"))
		h.Write(rq.body)
	}
	for _, i := range w.seq {
		h.Write([]byte(strconv.Itoa(i) + ","))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedHashes fixes each workload's request sequence for DevSeed. A
// change here is a change of the benchmark's inputs: results recorded
// before and after it are not comparable.
var pinnedHashes = map[string]string{
	"inline-year":   "2197c3750a34cd99cb357f1901836542a9d45832c2a9d63e0ffe62863cef82b6",
	"batch-year":    "574ed86d3e381e47bda3da933d8d87d7cc5fdb8a0d73e88b1f18554ee5440d1f",
	"month-routed":  "836ae2a1a3e5945d110d50571ace537f12dd9f2892f4fbc10de629997bae3386",
	"optimize-year": "eaa92e4e57298e8222f16d09361343f6702645b4c771b7aad35e95094732cd6e",
}

func TestRequestSequencePinned(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, DevSeed)
		if err != nil {
			t.Fatal(err)
		}
		if got := sequenceHash(w); got != pinnedHashes[name] {
			t.Errorf("%s seed %d: request sequence hash %s, pinned %s", name, DevSeed, got, pinnedHashes[name])
		}
	}
}

func TestSeedDeterminesSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, HeldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, HeldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newWorkload(name, HeldOutSeed+1)
		if err != nil {
			t.Fatal(err)
		}
		if sequenceHash(a) != sequenceHash(b) {
			t.Errorf("%s: the same seed generated different request sequences", name)
		}
		if sequenceHash(a) == sequenceHash(c) {
			t.Errorf("%s: different seeds generated the same request sequence", name)
		}
	}
}

// tamper corrupts the figure a workload's first-response check reads:
// the sign of an optimize response's savings, the last digit (a grand
// total or bill total) of any other response.
func tamper(workload string, resp []byte) []byte {
	out := bytes.Clone(resp)
	if workload == "optimize-year" {
		key := []byte(`"savings": `)
		i := bytes.Index(out, key)
		if i < 0 {
			panic("no savings field")
		}
		i += len(key)
		return append(out[:i:i], append([]byte("-"), out[i:]...)...)
	}
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] >= '0' && out[i] <= '9' {
			out[i] = '0' + (out[i]-'0'+1)%10
			return out
		}
	}
	panic("no digit to tamper with")
}

// TestTamperedResponsesFail sends one real request per workload through
// a fleet, checks that the answer passes, and that a tampered copy fails
// both the first-response check and the repeat check.
func TestTamperedResponsesFail(t *testing.T) {
	f, err := startFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.stop(); err != nil {
			t.Error(err)
		}
	}()
	for _, name := range workloadNames {
		w, err := newWorkload(name, DevSeed)
		if err != nil {
			t.Fatal(err)
		}
		d := newDriver(w, f.routerURL, 1)
		var buf bytes.Buffer
		status, err := d.do(0, &buf)
		d.close()
		if err != nil || status != 200 {
			t.Fatalf("%s: status %d, err %v: %.200s", name, status, err, buf.Bytes())
		}
		good := bytes.Clone(buf.Bytes())
		bad := tamper(name, good)

		fresh := newChecker(len(w.reqs), w.check.verify)
		copy(fresh.ref, w.check.ref)
		if err := fresh.check(0, bad); err == nil {
			t.Errorf("%s: tampered first response passed the check", name)
		}
		if err := w.check.check(0, good); err != nil {
			t.Errorf("%s: genuine response failed: %v", name, err)
		}
		if err := w.check.check(0, bad); err == nil {
			t.Errorf("%s: tampered repeat response passed the check", name)
		}
	}
}

// TestPhaseThen checks that slices joined into one window keep their
// samples in order and their windows add up, as the traced run needs.
func TestPhaseThen(t *testing.T) {
	a, b := newPhase(1), newPhase(1)
	a.window, a.last, a.attempted = 2*time.Second, 2*time.Second, 1
	a.samples = []sample{{at: time.Second, ms: 1, ok: true}}
	b.window, b.last, b.attempted = 3*time.Second, 1*time.Second, 1
	b.samples = []sample{{at: 500 * time.Millisecond, ms: 2, ok: true}}
	joined := newPhase(1)
	joined.then(a)
	joined.then(b)
	if joined.window != 5*time.Second || joined.last != 3*time.Second || joined.attempted != 2 {
		t.Fatalf("window %v, last %v, attempted %d; want 5s, 3s, 2", joined.window, joined.last, joined.attempted)
	}
	if got := joined.okIn(2*time.Second, 5*time.Second); got != 1 {
		t.Errorf("%d samples in the second slice, want 1", got)
	}
	if b.samples[0].at != 500*time.Millisecond || b.window != 3*time.Second {
		t.Errorf("then changed its argument: %+v", b)
	}
}

// TestEndToEndScaling checks that each slice and each set-up is scaled
// to the reference host by its own speed and granted share.
func TestEndToEndScaling(t *testing.T) {
	w := &workload{clients: 2, subWindows: 2}
	ph := newPhase(1)
	ph.window, ph.attempted, ph.ok = 2*time.Second, 30, 30
	for i := 0; i < 30; i++ {
		at := time.Duration(i) * 100 * time.Millisecond // 10 in slice 0, 20 in slice 1
		if i >= 10 {
			at = time.Second + time.Duration(i-10)*50*time.Millisecond
		}
		ph.samples = append(ph.samples, sample{at: at, ms: 1, ok: true})
	}
	sc := scale{
		Setups: []sliceScale{{Speed: 0.5, Granted: 1}, {Speed: 1, Granted: 1}, {Speed: 1, Granted: 0.5}},
		// Slice 1 ran twice as fast on a host twice as fast: the same
		// 10 requests/s and 8 ms per request on the reference host.
		Slices: []sliceScale{{Speed: 1, Granted: 1, CPUMs: 8}, {Speed: 2, Granted: 1, CPUMs: 4}},
	}
	m := endToEnd(w, ph, memDelta{}, []float64{4, 1, 3}, sc, nil)
	for name, want := range map[string]float64{
		"throughput_rps_ref": 10, "cpu_ms_per_req_ref": 8, "setup_s": 1.5, "setup_s_raw": 3,
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON runs a short traced month-routed run
// and checks that the end-to-end and per-layer metrics it prints are
// exactly those BENCHMARK.json declares, with the declared units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	res, err := run(config{workload: "month-routed", seed: DevSeed, seconds: 2, trace: true, setups: 1, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: correct %v, %d failed: %s", res.Correct, res.Failed, res.FirstErr)
	}
	for _, tc := range []struct {
		what     string
		got      map[string]metric
		declared []struct{ Name, Unit string }
	}{{"end_to_end", gated(res.Traced), spec.EndToEnd}, {"per_layer", res.Metrics, spec.PerLayer}} {
		var want, have []string
		for _, m := range tc.declared {
			want = append(want, m.Name+" "+m.Unit)
		}
		for n, m := range tc.got {
			have = append(have, n+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(have)
		if !equal(want, have) {
			t.Errorf("%s metrics:\n printed  %v\n declared %v", tc.what, have, want)
		}
	}
}

func gated(all map[string]metric) map[string]metric {
	g, _ := split(all)
	return g
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
