package tariff

// Billing-engine glue: every Tariff becomes a billing.LineItemProducer
// that compiles into a columnar kernel (kernel.go) reproducing the
// tariff's Cost method arithmetic exactly — same floating-point
// operations in the same order — while sharing the engine's single pass
// over the load series instead of scanning it per component.

import (
	"errors"

	"repro/internal/billing"
)

// Producer adapts a tariff into a billing.LineItemProducer. Known
// in-package kinds compile to dedicated kernels (a fixed tariff prices
// total energy once; TOU and dynamic tariffs walk price segments;
// stacks keep per-component partial sums so rounding matches
// Stack.Cost); any other Tariff implementation, CPP included, compiles
// to the per-sample PriceAt kernel that mirrors costByPriceAt.
func Producer(t Tariff) billing.LineItemProducer {
	return producer{t: t}
}

type producer struct{ t Tariff }

func (p producer) Validate() error {
	if p.t == nil {
		return errors.New("tariff: nil tariff component")
	}
	return nil
}

func (p producer) Describe() string { return p.t.Describe() }

// SpanFamily attributes scan cost to the tariff family (the kWh branch
// of the typology) in span traces.
func (p producer) SpanFamily() string { return "tariff" }

func classFor(k Kind) billing.Class {
	switch k {
	case TimeOfUse:
		return billing.ClassTOUTariff
	case Dynamic:
		return billing.ClassDynamicTariff
	default:
		return billing.ClassFixedTariff
	}
}
