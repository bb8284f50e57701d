package rng

import (
	"encoding/json"
	"fmt"
	"math"
)

// distJSON is the wire form of a Dist. Every catalog distribution maps to
// one kind; the parameters not used by a kind stay at their zero value.
// normal's lower truncation bound is a pointer because -Inf (the
// untruncated case) has no JSON representation — absence means -Inf.
type distJSON struct {
	Kind  string   `json:"kind"`
	V     float64  `json:"v,omitempty"`
	Lo    float64  `json:"lo,omitempty"`
	Hi    float64  `json:"hi,omitempty"`
	Mu    float64  `json:"mu,omitempty"`
	Sigma float64  `json:"sigma,omitempty"`
	Min   *float64 `json:"min,omitempty"`
}

// MarshalJSON serializes the distribution so task descriptions survive a
// write-ahead journal round trip. The catalog distributions round-trip
// exactly; a caller-defined Dist implementation degrades to a constant at its
// Mean (the journal cannot serialize arbitrary code, and the mean
// preserves the workload's expected cost).
func (dd DurationDist) MarshalJSON() ([]byte, error) {
	if dd.D == nil {
		return []byte("null"), nil
	}
	var out distJSON
	switch d := dd.D.(type) {
	case constant:
		out = distJSON{Kind: "const", V: d.V}
	case Uniform:
		out = distJSON{Kind: "uniform", Lo: d.Lo, Hi: d.Hi}
	case normal:
		out = distJSON{Kind: "normal", Mu: d.Mu, Sigma: d.Sigma}
		if !math.IsInf(d.Min, -1) {
			min := d.Min
			out.Min = &min
		}
	default:
		out = distJSON{Kind: "const", V: dd.D.Mean()}
	}
	return json.Marshal(out)
}

// UnmarshalJSON reverses MarshalJSON.
func (dd *DurationDist) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		dd.D = nil
		return nil
	}
	var in distJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	switch in.Kind {
	case "const":
		dd.D = constant{V: in.V}
	case "uniform":
		dd.D = Uniform{Lo: in.Lo, Hi: in.Hi}
	case "normal":
		min := math.Inf(-1)
		if in.Min != nil {
			min = *in.Min
		}
		dd.D = normal{Mu: in.Mu, Sigma: in.Sigma, Min: min}
	default:
		return fmt.Errorf("rng: unknown distribution kind %q", in.Kind)
	}
	return nil
}
