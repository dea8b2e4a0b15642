package billing

// Columnar evaluation, the engine's one evaluation loop. The period's
// load is viewed as contiguous month blocks (timeseries.MonthBlock);
// each block is fed to every compiled scanner chunk-at-a-time, so the
// inner loops are plain []units.Power scans with no interface dispatch
// per sample. The built-in energy/peak aggregates ride the same chunk
// loop, and the context is polled once per chunk: every
// cancelCheckStride samples untraced, every traceBlock samples when a
// span registry rides the context, which also times each component
// family's scanners per chunk.

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// scanSet is the pooled per-evaluation state: one scanner per kernel,
// the trace-family grouping of those scanners, the month-block scratch,
// the per-family span accumulators, and the period context handed to
// Begin (kept on the set so taking its address does not force a heap
// escape per period).
type scanSet struct {
	scanners []Scanner
	groups   [][]Scanner
	blocks   []timeseries.MonthBlock
	nanos    []time.Duration
	pctx     PeriodContext
}

// newScanSet builds the pool's scanSet from the compiled kernels.
func (e *Evaluator) newScanSet() *scanSet {
	ss := &scanSet{
		scanners: make([]Scanner, len(e.kernels)),
		groups:   make([][]Scanner, len(e.famIdx)),
		nanos:    make([]time.Duration, len(e.famIdx)),
	}
	for i, k := range e.kernels {
		ss.scanners[i] = k.NewScanner()
	}
	for g, idx := range e.famIdx {
		ss.groups[g] = make([]Scanner, len(idx))
		for j, i := range idx {
			ss.groups[g][j] = ss.scanners[i]
		}
	}
	return ss
}

// evaluateColumnar streams one period through the scanners. load is
// non-empty and ctx not yet cancelled (checked by the caller).
func (e *Evaluator) evaluateColumnar(ctx context.Context, load *timeseries.PowerSeries, pctx PeriodContext, res *Result) error {
	ss := e.pool.Get().(*scanSet)
	defer e.pool.Put(ss)

	interval := load.Interval()
	n := load.Len()
	ss.pctx = pctx
	start := load.Start()
	for _, sc := range ss.scanners {
		sc.Begin(&ss.pctx, start, interval, n)
	}
	ss.blocks = load.AppendBlocks(ss.blocks)

	// A span registry on the context switches on per-family timing:
	// shorter chunks, and each family's end clock reading is the next
	// family's start, so G+1 clock reads per chunk for G families.
	reg := obs.SpansFrom(ctx)
	stride := cancelCheckStride
	var endPeriod func()
	if reg != nil {
		endPeriod = obs.Span(ctx, SpanPeriod)
		stride = traceBlock
		clear(ss.nanos)
	}

	done := ctx.Done()
	h := interval.Hours()
	var kwh float64
	peak := load.At(0)
	peakIdx := 0
	for _, blk := range ss.blocks {
		samples := blk.Samples
		for off := 0; off < len(samples); off += stride {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			end := off + stride
			if end > len(samples) {
				end = len(samples)
			}
			chunk := samples[off:end]
			base := blk.Offset + off
			for j, p := range chunk {
				en := float64(p) * h
				kwh += en
				if p > peak {
					peak, peakIdx = p, base+j
				}
			}
			var t0 time.Time
			if reg != nil {
				t0 = e.now()
			}
			for g, group := range ss.groups {
				for _, sc := range group {
					sc.Scan(chunk, base)
				}
				if reg != nil {
					t1 := e.now()
					ss.nanos[g] += t1.Sub(t0)
					t0 = t1
				}
			}
		}
	}
	e.finishColumnar(ss, load, res, kwh, peak, peakIdx)
	if reg != nil {
		for g, name := range e.famNames {
			reg.Observe(SpanFamilyPrefix+name, ss.nanos[g].Seconds())
		}
		endPeriod()
	}
	return nil
}

// finishColumnar assembles the period result from the scanners. It
// assigns every field of res, so a reused Result slot needs no reset.
func (e *Evaluator) finishColumnar(ss *scanSet, load *timeseries.PowerSeries, res *Result, kwh float64, peak units.Power, peakIdx int) {
	lines := make([]LineItem, 0, len(ss.scanners))
	for _, sc := range ss.scanners {
		lines = sc.AppendLines(lines)
	}
	var total units.Money
	for _, l := range lines {
		total += l.Amount
	}
	*res = Result{
		PeriodStart: load.Start(),
		PeriodEnd:   load.End(),
		Energy:      units.Energy(kwh),
		Peak:        peak,
		PeakTime:    load.TimeAt(peakIdx),
		Lines:       lines,
		Total:       total,
	}
}
