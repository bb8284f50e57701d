package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestFragBestFitBeatsFirstFitOnHeteroCampus runs the fragmentation
// ablation end to end on the catalog's mixed platform at reduced scale:
// under identical workloads best-fit must grant strictly more large
// (whole-fat-node) tasks than first-fit, leave fewer requests waiting,
// and never lose a small grant doing so.
func TestFragBestFitBeatsFirstFitOnHeteroCampus(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultFragConfig()
	cfg.Smalls = 24 // fragments 3 fat nodes under first-fit
	res, err := RunFrag(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v, want strict + best-fit", res.Rows)
	}
	strict, best := res.Rows[0], res.Rows[1]
	if strict.Policy != "strict" || best.Policy != "best-fit" {
		t.Fatalf("row policies = %q/%q", strict.Policy, best.Policy)
	}
	if strict.SmallGranted != cfg.Smalls || best.SmallGranted != cfg.Smalls {
		t.Fatalf("small grants = %d/%d, want all %d under both policies",
			strict.SmallGranted, best.SmallGranted, cfg.Smalls)
	}
	if best.LargeGranted <= strict.LargeGranted {
		t.Fatalf("best-fit granted %d larges, first-fit %d: fragmentation win not reproduced",
			best.LargeGranted, strict.LargeGranted)
	}
	if best.Waiting >= strict.Waiting {
		t.Fatalf("waiting: best-fit %d, strict %d", best.Waiting, strict.Waiting)
	}
	// On the 32-fat/96-thin campus the outcome is deterministic: 24
	// thin-shaped smalls consume 3 whole fat nodes under first-fit
	// (8×16c each) and zero under best-fit.
	if want := res.Cfg.Larges - 3; strict.LargeGranted != want {
		t.Fatalf("strict granted %d larges, want %d (3 fat nodes fragmented)", strict.LargeGranted, want)
	}
	if best.LargeGranted != res.Cfg.Larges {
		t.Fatalf("best-fit granted %d larges, want all %d", best.LargeGranted, res.Cfg.Larges)
	}
	if best.Waiting != 0 || best.GPUUtil != 1 {
		t.Fatalf("best-fit end state: waiting %d, gpu util %.3f, want 0 and 1.0", best.Waiting, best.GPUUtil)
	}
}

func TestFragTableRendering(t *testing.T) {
	res := &FragResult{
		Cfg:        FragConfig{Platform: "hetero", Policy: "best-fit", Smalls: 96, Larges: 32},
		Shapes:     "32×128c/16g + 96×16c/0g",
		SmallCores: 16, LargeCores: 128, LargeGPUs: 16,
		Rows: []FragRow{
			{Policy: "strict", SmallGranted: 96, LargeGranted: 20, Waiting: 12, CoreUtil: 0.727, GPUUtil: 0.625},
			{Policy: "best-fit", SmallGranted: 96, LargeGranted: 32, Waiting: 0, CoreUtil: 1, GPUUtil: 1},
		},
	}
	out := res.Table().Render()
	for _, want := range []string{"hetero", "32×128c/16g + 96×16c/0g", "strict", "best-fit", "20/32", "32/32"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fragmentation table missing %q:\n%s", want, out)
		}
	}
}
