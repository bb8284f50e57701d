package loadgen

import (
	"testing"
	"time"
)

func TestScenarioWithDefaults(t *testing.T) {
	sc := Scenario{}.WithDefaults()
	if sc.Kind != KindSteady || sc.Name != "steady" {
		t.Errorf("zero scenario defaulted to kind %q name %q", sc.Kind, sc.Name)
	}
	if sc.Requests != 10000 || sc.Rate != 1000 || sc.Services != 4 {
		t.Errorf("unexpected defaults: %+v", sc)
	}

	d := Scenario{Kind: KindDiurnal}.WithDefaults()
	if d.WaveAmp != 0.8 || d.WavePeriod != 20*time.Second {
		t.Errorf("diurnal defaults: amp=%v period=%v", d.WaveAmp, d.WavePeriod)
	}
	h := Scenario{Kind: KindHotspot}.WithDefaults()
	if h.HotspotWeight != 0.8 {
		t.Errorf("hotspot default weight %v", h.HotspotWeight)
	}
	if h.Balance != "p2c" {
		t.Errorf("hotspot default balance %q, want p2c", h.Balance)
	}
	st := Scenario{Kind: KindSteady}.WithDefaults()
	if st.Balance != "" {
		t.Errorf("steady scenario grew balance %q", st.Balance)
	}
	s := Scenario{Kind: kindStraggler}.WithDefaults()
	if s.MaxTokens != 8 {
		t.Errorf("straggler default tokens %d, want 8", s.MaxTokens)
	}
	c := Scenario{Kind: kindChurn, Requests: 1000, Rate: 100}.WithDefaults()
	if c.ChurnAt != 5*time.Second { // half of 1000/100 = 10s span
		t.Errorf("churn default offset %v, want 5s", c.ChurnAt)
	}
	tr := Scenario{Kind: kindTrace, Trace: []time.Duration{1, 2, 3}}.WithDefaults()
	if tr.Requests != 3 {
		t.Errorf("trace request count %d, want len(Trace)=3", tr.Requests)
	}
}

func TestScenarioValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
		ok   bool
	}{
		{"valid-steady", Scenario{Kind: KindSteady, Requests: 1, Rate: 1}, true},
		{"unknown-kind", Scenario{Kind: "bogus", Requests: 1, Rate: 1}, false},
		{"no-requests", Scenario{Kind: KindSteady, Rate: 1}, false},
		{"no-rate", Scenario{Kind: KindSteady, Requests: 1}, false},
		{"diurnal-amp-high", Scenario{Kind: KindDiurnal, Requests: 1, Rate: 1, WaveAmp: 1}, false},
		{"hotspot-weight-high", Scenario{Kind: KindHotspot, Requests: 1, Rate: 1, HotspotWeight: 1.5}, false},
		{"churn-no-offset", Scenario{Kind: kindChurn, Requests: 1, Rate: 1}, false},
		{"balance-p2c", Scenario{Kind: KindHotspot, Requests: 1, Rate: 1, Balance: "p2c"}, true},
		{"balance-unknown", Scenario{Kind: KindHotspot, Requests: 1, Rate: 1, Balance: "bogus"}, false},
		{"trace-empty", Scenario{Kind: kindTrace, Requests: 1, Rate: 1}, false},
	} {
		err := tc.sc.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

func TestCatalogIsValid(t *testing.T) {
	cat := Catalog()
	if len(cat) != 5 {
		t.Fatalf("catalog has %d scenarios, want 5", len(cat))
	}
	seen := map[string]bool{}
	for _, sc := range cat {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.WithDefaults().Validate(); err != nil {
			t.Errorf("catalog scenario %q invalid: %v", sc.Name, err)
		}
	}
	for _, want := range []string{"steady", "diurnal", "hotspot", "straggler", "churn"} {
		if !seen[want] {
			t.Errorf("catalog missing scenario %q", want)
		}
	}
}
