package billing

// Regression test for the wall-clock reads scvet's nondeterm analyzer
// surfaced in traced evaluation: per-family span attribution used to
// call time.Now/time.Since directly. The clock is now injected
// (Evaluator.WithNow), so the span accounting itself is testable
// deterministically — and provably reads the clock once per family
// per chunk plus once to open the chunk, never inside the per-sample
// loop.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestColumnarTracedSpanClockInjection pins the traced loop's clock
// discipline with a tick-counting fake clock: families+1 clock reads
// per chunk, one fake tick per chunk in each family's span, and a
// Result identical to the untraced run.
func TestColumnarTracedSpanClockInjection(t *testing.T) {
	load := twoMonthLoad()
	mk := func() (*Evaluator, *scanProbe) {
		tariff := &scanProbe{name: "tariff-probe", family: "tariff"}
		ev, err := NewEvaluator(tariff, &scanProbe{name: "demand-probe", family: "demand"})
		if err != nil {
			t.Fatal(err)
		}
		return ev, tariff
	}

	ticks := 0
	base := time.Date(2016, time.March, 1, 0, 0, 0, 0, time.UTC)
	ev, tariff := mk()
	ev = ev.WithNow(func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * time.Second)
	})
	reg := obs.NewRegistry()
	traced, err := ev.EvaluatePeriodCtx(obs.WithSpans(context.Background(), reg), load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}

	const families = 2
	chunks := len(tariff.chunks)
	if chunks < 2 {
		t.Fatalf("want several chunks, got %d", chunks)
	}
	if want := (families + 1) * chunks; ticks != want {
		t.Errorf("clock reads = %d, want %d (families+1 per chunk)", ticks, want)
	}
	found := 0
	for _, s := range reg.Snapshot() {
		if s.Name != "billing.tariff" && s.Name != "billing.demand" {
			continue
		}
		found++
		if s.Sum != float64(chunks) {
			t.Errorf("%s: span sum = %v s, want %v (one tick per chunk)", s.Name, s.Sum, chunks)
		}
	}
	if found != families {
		t.Errorf("found %d family spans, want %d", found, families)
	}

	plainEv, _ := mk()
	plain, err := plainEv.EvaluatePeriod(load, PeriodContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("fake-clock traced result differs from untraced:\n%+v\nvs\n%+v", traced, plain)
	}
}
