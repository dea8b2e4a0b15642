package contract

// JSON import/export for bills — the machine-readable counterpart of
// the rendered bill, with currency amounts as floats and typology
// components by name. billJSON is the serialized shape: DecodeBill
// parses it with encoding/json, and AppendJSON writes it by hand, byte
// for byte what json.MarshalIndent of a billJSON would produce (the
// tests hold the two together). Encoding and decoding are exact inverses:
// DecodeBill(b.JSON()) reproduces b, and re-encoding the decoded bill
// yields byte-identical JSON (amounts are micro-unit fixed point, so
// the float round trip is lossless).

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/jsonenc"
	"repro/internal/units"
)

// billJSON is the serialized shape.
type billJSON struct {
	Contract    string         `json:"contract"`
	PeriodStart time.Time      `json:"period_start"`
	PeriodEnd   time.Time      `json:"period_end"`
	EnergyKWh   float64        `json:"energy_kwh"`
	PeakKW      float64        `json:"peak_kw"`
	Lines       []lineItemJSON `json:"lines"`
	Total       float64        `json:"total"`
	DemandShare float64        `json:"demand_share"`
}

type lineItemJSON struct {
	Component   string  `json:"component"`
	Description string  `json:"description"`
	Quantity    string  `json:"quantity"`
	Amount      float64 `json:"amount"`
}

// componentByName is the inverse of Component.String for decoding.
var componentByName = func() map[string]Component {
	m := make(map[string]Component, len(componentNames))
	for c, n := range componentNames {
		m[n] = c
	}
	return m
}()

// DecodeBill parses bill JSON produced by Bill.JSON back into a Bill.
// The serialized demand share is derived data and is discarded (the
// decoded bill recomputes it from its lines).
func DecodeBill(data []byte) (*Bill, error) {
	var in billJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("contract: bad bill JSON: %w", err)
	}
	b := &Bill{
		Contract:    in.Contract,
		PeriodStart: in.PeriodStart,
		PeriodEnd:   in.PeriodEnd,
		Energy:      units.Energy(in.EnergyKWh),
		PeakDemand:  units.Power(in.PeakKW),
		Total:       units.MoneyFromFloat(in.Total),
	}
	for i, l := range in.Lines {
		comp, ok := componentByName[l.Component]
		if !ok {
			return nil, fmt.Errorf("contract: bill line %d: unknown component %q", i, l.Component)
		}
		b.Lines = append(b.Lines, LineItem{
			Component:   comp,
			Description: l.Description,
			Quantity:    l.Quantity,
			Amount:      units.MoneyFromFloat(l.Amount),
		})
	}
	return b, nil
}

// JSON serializes the bill as indented JSON.
func (b *Bill) JSON() ([]byte, error) {
	// Sized from a slight overestimate of the rendered bill.
	return b.AppendJSON(make([]byte, 0, 288+len(b.Contract)+192*len(b.Lines)), 0)
}

// AppendJSON appends the bill's JSON document to dst: exactly the bytes
// json.MarshalIndent(billJSON, "", "  ") writes, re-indented as if the
// document sat depth levels deep inside an enclosing MarshalIndent
// value (depth 0 is a top-level document). It writes the shape by hand
// — no reflection, no intermediate document — and errors exactly where
// encoding/json does: a NaN or infinite amount, or a period bound that
// strict RFC 3339 cannot represent. A bill without lines renders
// "lines": null, as the nil slice does.
func (b *Bill) AppendJSON(dst []byte, depth int) ([]byte, error) {
	var err error
	in := depth + 1
	dst = append(dst, '{')
	dst = jsonenc.Key(dst, in, "contract")
	dst = jsonenc.String(dst, b.Contract)
	dst = append(dst, ',')
	dst = jsonenc.Key(dst, in, "period_start")
	if dst, err = jsonenc.Time(dst, b.PeriodStart); err != nil {
		return nil, err
	}
	dst = append(dst, ',')
	dst = jsonenc.Key(dst, in, "period_end")
	if dst, err = jsonenc.Time(dst, b.PeriodEnd); err != nil {
		return nil, err
	}
	dst = append(dst, ',')
	dst = jsonenc.Key(dst, in, "energy_kwh")
	if dst, err = jsonenc.Float(dst, float64(b.Energy)); err != nil {
		return nil, err
	}
	dst = append(dst, ',')
	dst = jsonenc.Key(dst, in, "peak_kw")
	if dst, err = jsonenc.Float(dst, float64(b.PeakDemand)); err != nil {
		return nil, err
	}
	dst = append(dst, ',')
	dst = jsonenc.Key(dst, in, "lines")
	if len(b.Lines) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, l := range b.Lines {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.Newline(dst, in+1)
			dst = append(dst, '{')
			dst = jsonenc.Key(dst, in+2, "component")
			dst = jsonenc.String(dst, l.Component.String())
			dst = append(dst, ',')
			dst = jsonenc.Key(dst, in+2, "description")
			dst = jsonenc.String(dst, l.Description)
			dst = append(dst, ',')
			dst = jsonenc.Key(dst, in+2, "quantity")
			dst = jsonenc.String(dst, l.Quantity)
			dst = append(dst, ',')
			dst = jsonenc.Key(dst, in+2, "amount")
			if dst, err = jsonenc.Float(dst, l.Amount.Float()); err != nil {
				return nil, err
			}
			dst = jsonenc.Newline(dst, in+1)
			dst = append(dst, '}')
		}
		dst = jsonenc.Newline(dst, in)
		dst = append(dst, ']')
	}
	dst = append(dst, ',')
	dst = jsonenc.Key(dst, in, "total")
	if dst, err = jsonenc.Float(dst, b.Total.Float()); err != nil {
		return nil, err
	}
	dst = append(dst, ',')
	dst = jsonenc.Key(dst, in, "demand_share")
	if dst, err = jsonenc.Float(dst, b.DemandShare()); err != nil {
		return nil, err
	}
	dst = jsonenc.Newline(dst, depth)
	return append(dst, '}'), nil
}
