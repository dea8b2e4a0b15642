package tariff

// Columnar kernels for the kWh branch. Every tariff compiles to a
// billing.Kernel whose scanner reproduces the tariff's Cost arithmetic
// exactly: a fixed tariff sums energy and rounds once; every other kind
// prices and rounds per sample at the price in effect at the sample's
// interval start, as costByPriceAt does. For the in-package kinds the
// per-sample PriceAt lookup is compiled away:
//
//   - TOU: the schedule is lowered to a month × day-kind × hour price
//     cube at compile time (calendar.LabelForSlot guarantees the label
//     is a pure function of that triple), and the scanner advances the
//     effective price once per price run — the hours of one calendar
//     day that share a cube price — instead of per sample.
//   - Dynamic: the feed's slot grid is walked segment-wise with the
//     same clamping PriceSeries.PriceAt applies at the edges.
//
// CPP tariffs, and any Tariff implemented outside this package, compile
// to the PriceAt kernel: it calls PriceAt per sample on the live
// tariff, so CPP windows declared after compilation still apply.

import (
	"math"
	"time"

	"repro/internal/billing"
	"repro/internal/calendar"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// maxSegEnd marks a price segment that runs to the end of any period.
const maxSegEnd = int(^uint(0) >> 1)

// CompileKernel compiles the adapted tariff into a columnar kernel.
func (p producer) CompileKernel() billing.Kernel {
	k := &tariffKernel{class: classFor(p.t.Kind())}
	var live bool
	k.cost, live = compileCostKernel(p.t)
	if live {
		k.live = p.t
	} else {
		k.desc = p.t.Describe()
	}
	return k
}

// tariffKernel pairs the compiled cost kernel with the line-item
// metadata. The class is period-invariant, and so is the description
// of a tariff with dedicated kernels, rendered once here; a tariff
// priced through PriceAt is described per period from live, because a
// CPP tariff's description counts the windows declared so far.
type tariffKernel struct {
	class billing.Class
	desc  string
	live  Tariff
	cost  costKernel
}

func (k *tariffKernel) NewScanner() billing.Scanner {
	return &tariffScanner{class: k.class, desc: k.desc, live: k.live, cost: k.cost.newScanner()}
}

// tariffScanner keeps a running period-energy sum for the quantity
// column and wraps the cost scanner.
type tariffScanner struct {
	class billing.Class
	desc  string
	live  Tariff
	cost  costScanner
	h     float64
	kwh   float64
	buf   []byte
}

func (s *tariffScanner) Begin(_ *billing.PeriodContext, start time.Time, interval time.Duration, n int) {
	s.h = interval.Hours()
	s.kwh = 0
	s.cost.begin(start, interval, n)
}

func (s *tariffScanner) Scan(samples []units.Power, base int) {
	h := s.h
	kwh := s.kwh
	for _, p := range samples {
		kwh += float64(p) * h
	}
	s.kwh = kwh
	s.cost.scan(samples, base)
}

func (s *tariffScanner) AppendLines(dst []billing.LineItem) []billing.LineItem {
	desc := s.desc
	if s.live != nil {
		desc = s.live.Describe()
	}
	s.buf = units.AppendEnergy(s.buf[:0], units.Energy(s.kwh))
	return append(dst, billing.LineItem{
		Class:       s.class,
		Description: desc,
		Quantity:    string(s.buf),
		Amount:      s.cost.amount(),
	})
}

// costKernel / costScanner compile a tariff's Cost arithmetic: scan
// every sample once, then read the period amount.
type costKernel interface {
	newScanner() costScanner
}

type costScanner interface {
	begin(start time.Time, interval time.Duration, n int)
	scan(samples []units.Power, base int)
	amount() units.Money
}

// compileCostKernel lowers a tariff's cost arithmetic. Tariffs without
// a dedicated kernel price every sample through PriceAt; live reports
// whether t contains one, so its state may change after compilation.
func compileCostKernel(t Tariff) (k costKernel, live bool) {
	switch tt := t.(type) {
	case *FixedTariff:
		return fixedCostKernel{rate: tt.Rate}, false
	case *TOUTariff:
		return compileTOUKernel(tt), false
	case *DynamicTariff:
		return feedCostKernel{feed: tt.feed, mult: tt.multiplier, adder: tt.adder}, false
	case *Stack:
		kids := make([]costKernel, len(tt.components))
		for i, c := range tt.components {
			var kidLive bool
			kids[i], kidLive = compileCostKernel(c)
			live = live || kidLive
		}
		return stackCostKernel{kids: kids}, live
	default:
		return priceAtCostKernel{t: t}, true
	}
}

// fixedCostKernel reproduces FixedTariff.Cost: sum energy, price once.
type fixedCostKernel struct{ rate units.EnergyPrice }

func (k fixedCostKernel) newScanner() costScanner { return &fixedCostScanner{rate: k.rate} }

type fixedCostScanner struct {
	rate units.EnergyPrice
	h    float64
	kwh  float64
}

func (s *fixedCostScanner) begin(_ time.Time, interval time.Duration, _ int) {
	s.h = interval.Hours()
	s.kwh = 0
}

func (s *fixedCostScanner) scan(samples []units.Power, _ int) {
	h := s.h
	kwh := s.kwh
	for _, p := range samples {
		kwh += float64(p) * h
	}
	s.kwh = kwh
}

func (s *fixedCostScanner) amount() units.Money { return s.rate.Cost(units.Energy(s.kwh)) }

// priceCube is a TOU schedule lowered to a dense lookup: month ×
// day-kind (indexed by calendar.DayKind) × hour.
type priceCube [12][4][24]units.EnergyPrice

// compileTOUKernel bakes the schedule's label function and the rate map
// into a price cube. calendar.LabelForSlot is the pinned contract that
// the label depends only on (month, day-kind, hour).
func compileTOUKernel(t *TOUTariff) costKernel {
	k := &touCostKernel{sched: t.schedule}
	for m := time.January; m <= time.December; m++ {
		for _, kind := range []calendar.DayKind{calendar.Weekday, calendar.Weekend, calendar.Holiday} {
			for h := 0; h < 24; h++ {
				k.cube[m-1][kind][h] = t.rates[t.schedule.LabelForSlot(m, kind, h)]
			}
		}
	}
	return k
}

type touCostKernel struct {
	sched *calendar.Schedule
	cube  priceCube
}

func (k *touCostKernel) newScanner() costScanner {
	return &touCostScanner{sched: k.sched, cube: &k.cube}
}

// touCostScanner reproduces costByPriceAt for a TOU tariff: every sample's
// energy is billed at the slot price of its interval start, rounding
// per sample. The effective price advances per price run (see advance);
// each advance re-derives (month, day-kind, hour) from the exact sample
// instant, so irregular intervals and DST transitions stay exact.
type touCostScanner struct {
	sched *calendar.Schedule
	cube  *priceCube

	start    time.Time
	interval time.Duration
	h        float64
	total    units.Money

	price  units.EnergyPrice
	segEnd int

	// Day-kind cache: KindOf is constant within a calendar day, and a
	// holiday lookup costs a date-key rendering.
	curY, curD int
	curM       time.Month
	kind       calendar.DayKind
	haveDay    bool
}

func (s *touCostScanner) begin(start time.Time, interval time.Duration, _ int) {
	s.start = start
	s.interval = interval
	s.h = interval.Hours()
	s.total = 0
	s.segEnd = 0
	s.haveDay = false
}

func (s *touCostScanner) scan(samples []units.Power, base int) {
	h := s.h
	total := s.total
	for j := 0; j < len(samples); {
		if base+j >= s.segEnd {
			s.advance(base + j)
		}
		end := s.segEnd - base
		if end > len(samples) {
			end = len(samples)
		}
		price := s.price
		for ; j < end; j++ {
			en := float64(samples[j]) * h
			total += price.Cost(units.Energy(en))
		}
	}
	s.total = total
}

// advance recomputes the effective price at sample index i and the
// first index past the price run that holds it: the current wall-clock
// hour, extended over the following hours of the same calendar day
// whose cube price is equal. The run's end is measured in wall time
// from the sample instant t itself, never from a top of the hour (which
// can lie in an earlier zone period, or inside a DST gap that time.Date
// normalizes elsewhere), and the segment is clipped at the end of t's
// zone period. Within one zone period the wall clock advances with
// absolute time, so every sample of the segment lies in the run's
// hours; after a transition the next advance re-derives the wall clock.
// Runs end at midnight at the latest, so the cached day-kind holds
// across them.
func (s *touCostScanner) advance(i int) {
	t := s.start.Add(time.Duration(i) * s.interval)
	y, mo, d := t.Date()
	if !s.haveDay || y != s.curY || mo != s.curM || d != s.curD {
		s.curY, s.curM, s.curD = y, mo, d
		s.kind = s.sched.DayKindAt(t)
		s.haveDay = true
	}
	hour, minute, sec := t.Clock()
	day := &s.cube[mo-1][s.kind]
	s.price = day[hour]
	run := 1
	for hour+run < 24 && samePrice(day[hour+run], s.price) {
		run++
	}
	intoHour := time.Duration(minute)*time.Minute + time.Duration(sec)*time.Second + time.Duration(t.Nanosecond())
	boundary := t.Add(time.Duration(run)*time.Hour - intoHour)
	if _, zoneEnd := t.ZoneBounds(); !zoneEnd.IsZero() && zoneEnd.Before(boundary) {
		boundary = zoneEnd
	}
	seg := billing.CeilIndex(boundary.Sub(s.start), s.interval)
	if seg <= i {
		// boundary lies after t, so this never fires; it keeps the scan
		// loop from stalling should that ever break.
		seg = i + 1
	}
	s.segEnd = seg
}

// samePrice reports whether two cube prices are the same float64 bit
// for bit, so that every sample either prices costs exactly the same.
func samePrice(a, b units.EnergyPrice) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func (s *touCostScanner) amount() units.Money { return s.total }

// feedCostKernel reproduces costByPriceAt for a dynamic tariff: the feed
// price in effect at each sample's interval start (with PriceAt's edge
// clamping), marked up, priced and rounded per sample.
type feedCostKernel struct {
	feed  *timeseries.PriceSeries
	mult  float64
	adder units.EnergyPrice
}

func (k feedCostKernel) newScanner() costScanner {
	return &feedCostScanner{feed: k.feed, mult: k.mult, adder: k.adder}
}

type feedCostScanner struct {
	feed  *timeseries.PriceSeries
	mult  float64
	adder units.EnergyPrice

	start    time.Time
	interval time.Duration
	h        float64
	total    units.Money

	price  units.EnergyPrice
	segEnd int
}

func (s *feedCostScanner) begin(start time.Time, interval time.Duration, _ int) {
	s.start = start
	s.interval = interval
	s.h = interval.Hours()
	s.total = 0
	s.segEnd = 0
}

func (s *feedCostScanner) scan(samples []units.Power, base int) {
	h := s.h
	total := s.total
	for j := 0; j < len(samples); {
		if base+j >= s.segEnd {
			s.advance(base + j)
		}
		end := s.segEnd - base
		if end > len(samples) {
			end = len(samples)
		}
		price := s.price
		for ; j < end; j++ {
			en := float64(samples[j]) * h
			total += price.Cost(units.Energy(en))
		}
	}
	s.total = total
}

// advance mirrors PriceSeries.PriceAt at sample index i and finds the
// first index whose instant leaves the current feed slot.
func (s *feedCostScanner) advance(i int) {
	t := s.start.Add(time.Duration(i) * s.interval)
	fs := s.feed.Start()
	fi := s.feed.Interval()
	flen := s.feed.Len()
	var raw units.EnergyPrice
	seg := maxSegEnd
	switch {
	case flen == 0:
		raw = 0
	case t.Before(fs):
		raw = s.feed.At(0)
		seg = billing.CeilIndex(fs.Sub(s.start), s.interval)
	default:
		j := int(t.Sub(fs) / fi)
		if j >= flen {
			raw = s.feed.At(flen - 1)
		} else {
			raw = s.feed.At(j)
			boundary := fs.Add(time.Duration(j+1) * fi)
			seg = billing.CeilIndex(boundary.Sub(s.start), s.interval)
		}
	}
	if seg <= i {
		seg = i + 1
	}
	s.segEnd = seg
	s.price = units.EnergyPrice(float64(raw)*s.mult) + s.adder
}

func (s *feedCostScanner) amount() units.Money { return s.total }

// stackCostKernel reproduces Stack.Cost: each component accumulates
// independently and the amounts sum at the end, preserving
// per-component rounding.
type stackCostKernel struct{ kids []costKernel }

func (k stackCostKernel) newScanner() costScanner {
	kids := make([]costScanner, len(k.kids))
	for i, kid := range k.kids {
		kids[i] = kid.newScanner()
	}
	return &stackCostScanner{kids: kids}
}

type stackCostScanner struct{ kids []costScanner }

func (s *stackCostScanner) begin(start time.Time, interval time.Duration, n int) {
	for _, k := range s.kids {
		k.begin(start, interval, n)
	}
}

func (s *stackCostScanner) scan(samples []units.Power, base int) {
	for _, k := range s.kids {
		k.scan(samples, base)
	}
}

func (s *stackCostScanner) amount() units.Money {
	var total units.Money
	for _, k := range s.kids {
		total += k.amount()
	}
	return total
}

// priceAtCostKernel reproduces costByPriceAt for any other tariff (CPP
// included): each sample's energy is billed at PriceAt of its interval
// start, rounding per sample. It holds the tariff itself, not a
// snapshot, so CPP windows declared after compilation take effect.
type priceAtCostKernel struct{ t Tariff }

func (k priceAtCostKernel) newScanner() costScanner { return &priceAtCostScanner{t: k.t} }

type priceAtCostScanner struct {
	t        Tariff
	start    time.Time
	interval time.Duration
	h        float64
	total    units.Money
}

func (s *priceAtCostScanner) begin(start time.Time, interval time.Duration, _ int) {
	s.start = start
	s.interval = interval
	s.h = interval.Hours()
	s.total = 0
}

func (s *priceAtCostScanner) scan(samples []units.Power, base int) {
	h := s.h
	total := s.total
	for j, p := range samples {
		at := s.start.Add(time.Duration(base+j) * s.interval)
		total += s.t.PriceAt(at).Cost(units.Energy(float64(p) * h))
	}
	s.total = total
}

func (s *priceAtCostScanner) amount() units.Money { return s.total }
