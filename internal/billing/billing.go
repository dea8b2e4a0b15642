// Package billing is the unified single-pass billing engine underneath
// package contract. The paper's contract typology (Figure 1) prices a
// load profile through several independent components — energy tariffs
// (kWh branch), demand charges and powerbands (kW branch), emergency-DR
// obligations ("other") and flat fees — and the naive evaluation scans
// the metered series once per component. On a year of 15-minute data
// with a handful of components that is a dozen full traversals per
// bill, which matters because cost optimizers (demand-charge reduction,
// workload modulation under real-world pricing) call bill evaluation in
// a tight inner loop.
//
// The engine inverts the loop: components implement LineItemProducer,
// the Evaluator streams the load series exactly once per billing
// period, and every producer's Accumulator observes each metering
// sample as it flies by — accumulating energy, peak, per-tariff cost,
// billed demand, powerband excursions and emergency exposure
// simultaneously. Calendar months evaluate concurrently on a worker
// pool (months.go); the ratchet demand charge's sequential dependency
// on the historical peak is resolved by a cheap peak prescan before the
// parallel phase.
//
// The engine is arithmetic-identical to the per-component path: every
// accumulator performs the same floating-point operations in the same
// order as the component's standalone Cost method, so line amounts
// match to the micro-currency-unit (see contract's golden equivalence
// tests).
package billing

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// ErrEmptyLoad is returned when a period has no metering samples.
var ErrEmptyLoad = errors.New("billing: cannot evaluate an empty load profile")

// cancelCheckStride is how many samples the streaming loop processes
// between context-cancellation checks. A power of two so the check
// compiles to a mask; at 15-minute metering a year is ~35k samples, so
// a cancelled evaluation stops within a small fraction of a period.
const cancelCheckStride = 2048

// Span names recorded when the evaluating context carries an
// obs.Registry (obs.WithSpans). Per-family observation cost is recorded
// under SpanFamilyPrefix + the producer's family ("billing.tariff",
// "billing.demand", ...).
const (
	// SpanPeriod covers one EvaluatePeriodCtx call end to end.
	SpanPeriod = "billing.period"
	// SpanMonths covers one EvaluateMonths call end to end.
	SpanMonths = "billing.months"
	// SpanPrescan covers the ratchet peak prescan before the parallel
	// month phase.
	SpanPrescan = "billing.prescan"
	// SpanFamilyPrefix prefixes per-component-family observation spans.
	SpanFamilyPrefix = "billing."
)

// traceBlock is how many samples the traced evaluation buffers between
// per-family timing boundaries. Larger blocks amortize the clock reads
// that attribute observation cost to component families; the block is
// also the traced loop's cancellation-poll stride.
const traceBlock = 512

// Class identifies what kind of contract component produced a line
// item. It mirrors the typology leaves plus the flat-fee class the
// paper excludes from the typology ("these are not included ... as they
// cannot be generalized").
type Class int

// Line-item classes.
const (
	ClassFixedTariff Class = iota
	ClassTOUTariff
	ClassDynamicTariff
	ClassDemandCharge
	ClassPowerband
	ClassEmergencyDR
	ClassFlatFee
)

var classNames = map[Class]string{
	ClassFixedTariff:   "fixed-tariff",
	ClassTOUTariff:     "time-of-use-tariff",
	ClassDynamicTariff: "dynamic-tariff",
	ClassDemandCharge:  "demand-charge",
	ClassPowerband:     "powerband",
	ClassEmergencyDR:   "emergency-dr",
	ClassFlatFee:       "flat-fee",
}

// String returns the class name.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// LineItem is one itemized charge contributed by a producer.
type LineItem struct {
	// Class identifies the producing component kind.
	Class Class
	// Description is the human-readable label.
	Description string
	// Quantity describes the billed quantity ("8.40 GWh", "15.00 MW").
	Quantity string
	// Amount is the exact charge.
	Amount units.Money
}

// Window is a half-open [Start, End) wall-clock interval, used to carry
// declared emergency events into the engine without depending on the
// contract layer.
type Window struct {
	Start time.Time
	End   time.Time
}

// Covers reports whether instant t falls inside the window.
func (w Window) Covers(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// PeriodContext carries the per-period billing inputs every accumulator
// may need.
type PeriodContext struct {
	// HistoricalPeak feeds ratchet demand charges (0 if none).
	HistoricalPeak units.Power
	// Emergencies are the grid emergencies declared during the period.
	Emergencies []Window
}

// Sample is one metering observation handed to every accumulator during
// the single pass.
type Sample struct {
	// Index is the sample's position in the period's series.
	Index int
	// Time is the start instant of the metering interval.
	Time time.Time
	// Power is the average draw over the interval.
	Power units.Power
	// Energy is Power integrated over the interval, precomputed once
	// and shared by all accumulators.
	Energy units.Energy
}

// Accumulator is one component's per-period state: it observes every
// metering sample exactly once and then emits the component's line
// items.
type Accumulator interface {
	// Observe consumes one metering sample. Samples arrive in
	// chronological order, each exactly once.
	Observe(s Sample)
	// Lines returns the component's line items for the period, called
	// once after the last sample.
	Lines() []LineItem
}

// LineItemProducer is a contract component the engine can bill: it
// validates itself, describes itself, and contributes line items
// through a per-period Accumulator. Producers must be safe for
// concurrent BeginPeriod calls (month evaluation is parallel); all
// mutable state belongs in the accumulator.
type LineItemProducer interface {
	// Validate checks the component's parameters.
	Validate() error
	// Describe returns a one-line human-readable description.
	Describe() string
	// BeginPeriod returns a fresh accumulator for one billing period.
	// interval is the period's metering interval.
	BeginPeriod(ctx *PeriodContext, interval time.Duration) Accumulator
}

// FamilyReporter is an optional LineItemProducer extension: producers
// that implement it have their per-sample observation cost attributed
// to the named component family ("tariff", "demand", "powerband",
// "emergency", "fee") in span traces. Producers without it pool under
// "other".
type FamilyReporter interface {
	// SpanFamily names the producer's component family for traces.
	SpanFamily() string
}

// familyOf returns a producer's trace family.
func familyOf(p LineItemProducer) string {
	if f, ok := p.(FamilyReporter); ok {
		return f.SpanFamily()
	}
	return "other"
}

// FlatFee is the engine-level flat per-period charge (service fees,
// metering fees, taxes folded to a constant).
type FlatFee struct {
	Name   string
	Amount units.Money
}

// Validate accepts any flat fee (negative amounts model credits).
func (f FlatFee) Validate() error { return nil }

// Describe returns the fee's name.
func (f FlatFee) Describe() string { return f.Name }

// BeginPeriod returns the fee's (stateless) accumulator.
func (f FlatFee) BeginPeriod(*PeriodContext, time.Duration) Accumulator {
	return feeAcc{fee: f}
}

type feeAcc struct{ fee FlatFee }

func (feeAcc) Observe(Sample) {}

func (a feeAcc) Lines() []LineItem {
	return []LineItem{{
		Class:       ClassFlatFee,
		Description: a.fee.Name,
		Quantity:    "flat",
		Amount:      a.fee.Amount,
	}}
}

// SpanFamily attributes fee observation cost (trivial) to "fee".
func (f FlatFee) SpanFamily() string { return "fee" }

var _ LineItemProducer = FlatFee{}
var _ FamilyReporter = FlatFee{}

// Result is the outcome of evaluating one billing period.
type Result struct {
	// PeriodStart / PeriodEnd delimit the billed interval.
	PeriodStart time.Time
	PeriodEnd   time.Time
	// Energy is the total consumption billed.
	Energy units.Energy
	// Peak is the highest metered interval; PeakTime its start instant.
	Peak     units.Power
	PeakTime time.Time
	// Lines are the itemized entries in producer order; Total is their
	// exact sum.
	Lines []LineItem
	Total units.Money
}

// Evaluator is a compiled set of producers, reusable across any number
// of periods and load profiles. It is immutable after construction and
// safe for concurrent use (SetColumnar is the one test-only exception).
type Evaluator struct {
	producers []LineItemProducer
	// famNames / famIdx group producers by trace family (first-seen
	// order): famIdx[g] holds the producer indices of family famNames[g].
	// Precomputed so the traced path pays no per-period classification.
	famNames []string
	famIdx   [][]int
	// kernels holds every producer's compiled columnar kernel, in
	// producer order; nil when any producer failed to compile, in which
	// case evaluation stays on the sample-walk path.
	kernels []Kernel
	// columnar selects the evaluation path. Set at construction when
	// all producers compile; SetColumnar can force the sample-walk
	// oracle for equivalence testing.
	columnar bool
	// pool recycles scanSets (the per-period scanner state plus block
	// scratch) so steady-state columnar evaluation does not allocate
	// scanner machinery.
	pool sync.Pool
	// now is the clock the traced path stamps span durations with. It
	// is instrumentation only — no billing arithmetic may depend on it —
	// and it is injectable (WithNow) so evaluation stays testable
	// without wall-clock reads.
	now func() time.Time
}

// NewEvaluator validates every producer and returns the evaluator. When
// every producer compiles a columnar kernel (KernelProducer), the
// evaluator takes the columnar fast path; otherwise it keeps the
// per-sample accumulator walk.
func NewEvaluator(producers ...LineItemProducer) (*Evaluator, error) {
	for i, p := range producers {
		if p == nil {
			return nil, fmt.Errorf("billing: producer %d is nil", i)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("billing: producer %d (%T): %w", i, p, err)
		}
	}
	e := &Evaluator{producers: producers, now: time.Now}
	seen := make(map[string]int)
	for i, p := range producers {
		f := familyOf(p)
		g, ok := seen[f]
		if !ok {
			g = len(e.famNames)
			seen[f] = g
			e.famNames = append(e.famNames, f)
			e.famIdx = append(e.famIdx, nil)
		}
		e.famIdx[g] = append(e.famIdx[g], i)
	}
	kernels := make([]Kernel, len(producers))
	compiled := true
	for i, p := range producers {
		kp, ok := p.(KernelProducer)
		if !ok {
			compiled = false
			break
		}
		k := kp.CompileKernel()
		if k == nil {
			compiled = false
			break
		}
		kernels[i] = k
	}
	if compiled {
		e.kernels = kernels
		e.columnar = true
	}
	e.pool.New = func() any { return e.newScanSet() }
	return e, nil
}

// Columnar reports whether the evaluator is on the columnar fast path.
func (e *Evaluator) Columnar() bool { return e.columnar }

// SetColumnar switches between the columnar fast path and the legacy
// per-sample walk, returning the path actually in effect (enabling is
// refused when some producer did not compile a kernel). Both paths
// produce bit-identical results; this is a test and diagnostics hook —
// do not call it concurrently with evaluation.
func (e *Evaluator) SetColumnar(on bool) bool {
	e.columnar = on && e.kernels != nil
	return e.columnar
}

// Producers returns the number of compiled producers.
func (e *Evaluator) Producers() int { return len(e.producers) }

// WithNow replaces the span-timing clock and returns e. Only the
// traced path reads it; bill arithmetic is clock-free either way.
func (e *Evaluator) WithNow(now func() time.Time) *Evaluator {
	if now != nil {
		e.now = now
	}
	return e
}

// EvaluatePeriod streams the load series once, feeding every producer's
// accumulator, and assembles the period result. The built-in energy and
// peak aggregates ride the same pass.
func (e *Evaluator) EvaluatePeriod(load *timeseries.PowerSeries, ctx PeriodContext) (*Result, error) {
	return e.EvaluatePeriodCtx(context.Background(), load, ctx)
}

// EvaluatePeriodCtx is EvaluatePeriod with cooperative cancellation: the
// streaming loop polls ctx every cancelCheckStride samples and returns
// ctx.Err() once the context is done. Long-lived callers (the billing
// service) use it to enforce per-request deadlines on evaluation itself
// rather than only between requests.
func (e *Evaluator) EvaluatePeriodCtx(ctx context.Context, load *timeseries.PowerSeries, pctx PeriodContext) (*Result, error) {
	res := new(Result)
	if err := e.evaluatePeriodInto(ctx, load, pctx, res); err != nil {
		return nil, err
	}
	return res, nil
}

// evaluatePeriodInto evaluates one period into a caller-owned Result —
// the allocation-lean core EvaluateMonths fills its result slab with.
// It dispatches between the columnar fast path (columnar.go) and the
// legacy per-sample walk that remains the golden oracle.
func (e *Evaluator) evaluatePeriodInto(ctx context.Context, load *timeseries.PowerSeries, pctx PeriodContext, res *Result) error {
	if load == nil || load.Len() == 0 {
		return ErrEmptyLoad
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.columnar {
		return e.evaluateColumnar(ctx, load, pctx, res)
	}
	interval := load.Interval()
	accs := make([]Accumulator, len(e.producers))
	for i, p := range e.producers {
		accs[i] = p.BeginPeriod(&pctx, interval)
	}
	if reg := obs.SpansFrom(ctx); reg != nil {
		return e.evaluateTraced(ctx, reg, load, accs, res)
	}

	done := ctx.Done()
	h := interval.Hours()
	var kwh float64
	peak := load.At(0)
	peakIdx := 0
	for i := 0; i < load.Len(); i++ {
		if done != nil && i&(cancelCheckStride-1) == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		p := load.At(i)
		en := float64(p) * h
		kwh += en
		if p > peak {
			peak, peakIdx = p, i
		}
		s := Sample{Index: i, Time: load.TimeAt(i), Power: p, Energy: units.Energy(en)}
		for _, a := range accs {
			a.Observe(s)
		}
	}

	res.PeriodStart = load.Start()
	res.PeriodEnd = load.End()
	res.Energy = units.Energy(kwh)
	res.Peak = peak
	res.PeakTime = load.TimeAt(peakIdx)
	for _, a := range accs {
		for _, l := range a.Lines() {
			res.Lines = append(res.Lines, l)
			res.Total += l.Amount
		}
	}
	return nil
}

// evaluateTraced is the span-recording twin of the streaming loop,
// taken when the context carries an obs.Registry. It buffers samples in
// blocks and feeds each component family's accumulators block-at-a-time
// between clock reads, so attributing observation cost per family costs
// one timestamp pair per family per block instead of per sample. Every
// accumulator still sees every sample exactly once in chronological
// order, so the arithmetic — and therefore the bill — is identical to
// the untraced path.
func (e *Evaluator) evaluateTraced(ctx context.Context, reg *obs.Registry, load *timeseries.PowerSeries, accs []Accumulator, res *Result) error {
	endPeriod := obs.Span(ctx, SpanPeriod)
	groups := make([][]Accumulator, len(e.famIdx))
	for g, idx := range e.famIdx {
		groups[g] = make([]Accumulator, len(idx))
		for j, i := range idx {
			groups[g][j] = accs[i]
		}
	}

	done := ctx.Done()
	interval := load.Interval()
	h := interval.Hours()
	var kwh float64
	peak := load.At(0)
	peakIdx := 0
	nanos := make([]time.Duration, len(groups))
	buf := make([]Sample, 0, traceBlock)
	n := load.Len()
	for base := 0; base < n; base += traceBlock {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		end := base + traceBlock
		if end > n {
			end = n
		}
		buf = buf[:0]
		for i := base; i < end; i++ {
			p := load.At(i)
			en := float64(p) * h
			kwh += en
			if p > peak {
				peak, peakIdx = p, i
			}
			buf = append(buf, Sample{Index: i, Time: load.TimeAt(i), Power: p, Energy: units.Energy(en)})
		}
		// Each family's end reading is the next family's start: G+1
		// clock reads per block for G families.
		t0 := e.now()
		for g, group := range groups {
			for _, a := range group {
				for _, s := range buf {
					a.Observe(s)
				}
			}
			t1 := e.now()
			nanos[g] += t1.Sub(t0)
			t0 = t1
		}
	}
	for g, name := range e.famNames {
		reg.Observe(SpanFamilyPrefix+name, nanos[g].Seconds())
	}

	res.PeriodStart = load.Start()
	res.PeriodEnd = load.End()
	res.Energy = units.Energy(kwh)
	res.Peak = peak
	res.PeakTime = load.TimeAt(peakIdx)
	for _, a := range accs {
		for _, l := range a.Lines() {
			res.Lines = append(res.Lines, l)
			res.Total += l.Amount
		}
	}
	endPeriod()
	return nil
}
