package bio

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestGenerateVCFDeterministic(t *testing.T) {
	a := GenerateVCF(rng.New(1), 100, 0.3)
	b := GenerateVCF(rng.New(1), 100, 0.3)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("variant %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateVCFWellFormed(t *testing.T) {
	for _, v := range GenerateVCF(rng.New(2), 500, 0.5) {
		if v.Ref == v.Alt {
			t.Fatalf("ref == alt in %+v", v)
		}
		if !strings.HasPrefix(v.Chrom, "chr") || v.Pos < 1 {
			t.Fatalf("malformed variant %+v", v)
		}
		if v.Qual < 30 || v.Qual > 70 {
			t.Fatalf("quality out of band: %+v", v)
		}
	}
}

func TestDoseBiasesHotspots(t *testing.T) {
	lowDose := GenerateVCF(rng.New(3), 2000, 0.0)
	highDose := GenerateVCF(rng.New(3), 2000, 0.8)
	count := func(vs []Variant) int {
		n := 0
		for _, v := range vs {
			if v.Chrom == "chr1" && v.Pos < 25_000 {
				n++
			}
		}
		return n
	}
	lo, hi := count(lowDose), count(highDose)
	if hi < 3*lo {
		t.Fatalf("hotspot hits low=%d high=%d, want strong dose bias", lo, hi)
	}
}

func TestGeneModelMapping(t *testing.T) {
	m := NewGeneModel(100)
	if len(m.Genes()) != 100 {
		t.Fatalf("genes = %d", len(m.Genes()))
	}
	// deterministic and stable
	if m.GeneAt("chr1", 12345) != m.GeneAt("chr1", 12345) {
		t.Fatal("GeneAt not deterministic")
	}
	// nearby positions within the same kb share a gene
	if m.GeneAt("chr1", 1000) != m.GeneAt("chr1", 1999) {
		t.Fatal("kb-binning broken")
	}
	// default size
	if got := len(NewGeneModel(0).Genes()); got != 500 {
		t.Fatalf("default genes = %d", got)
	}
}

func TestAnnotateCoversAllVariants(t *testing.T) {
	m := NewGeneModel(200)
	src := rng.New(4)
	variants := GenerateVCF(src, 300, 0.2)
	anns := Annotate(m, src, variants)
	if len(anns) != 300 {
		t.Fatalf("annotations = %d", len(anns))
	}
	impacts := map[string]int{}
	for _, a := range anns {
		if a.Gene == "" || a.Consequence == "" {
			t.Fatalf("incomplete annotation %+v", a)
		}
		impacts[a.Impact]++
	}
	// the weighted consequence distribution must produce a spread
	if len(impacts) < 3 {
		t.Fatalf("impact classes = %v, want >= 3", impacts)
	}
	if impacts["MODIFIER"] == 0 {
		t.Fatal("no non-coding annotations drawn")
	}
}

func TestGeneHitsExcludesModifiers(t *testing.T) {
	anns := []Annotation{
		{Gene: "A", Impact: "HIGH"},
		{Gene: "A", Impact: "MODIFIER"},
		{Gene: "B", Impact: "LOW"},
	}
	hits := GeneHits(anns)
	if hits["A"] != 1 || hits["B"] != 1 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEnrichDetectsRadiationPathwayAtHighDose(t *testing.T) {
	// end-to-end signal check: at high dose, the radiation-response
	// pathway (hotspot genes) must rank near the top of the enrichment
	m := NewGeneModel(500)
	src := rng.New(5)
	pathways := SyntheticPathways(m, src.Derive("pw"), 20, 25)
	variants := GenerateVCF(src.Derive("vcf"), 400, 0.7)
	anns := Annotate(m, src.Derive("ann"), variants)
	enr := Enrich(m, GeneHits(anns), pathways)
	if len(enr) != 20 {
		t.Fatalf("enrichments = %d", len(enr))
	}
	rank := -1
	for i, e := range enr {
		if e.Pathway == "radiation-response" {
			rank = i
		}
	}
	if rank == -1 || rank > 2 {
		t.Fatalf("radiation-response ranked %d, want top-3: %+v", rank, enr[:3])
	}
	if enr[0].PValue > enr[len(enr)-1].PValue {
		t.Fatal("enrichments not sorted by p-value")
	}
}

func TestEnrichNoSignalAtZeroDose(t *testing.T) {
	m := NewGeneModel(500)
	src := rng.New(6)
	pathways := SyntheticPathways(m, src.Derive("pw"), 20, 25)
	variants := GenerateVCF(src.Derive("vcf"), 400, 0.0)
	anns := Annotate(m, src.Derive("ann"), variants)
	enr := Enrich(m, GeneHits(anns), pathways)
	for _, e := range enr {
		if e.Pathway == "radiation-response" && e.PValue < 1e-6 {
			t.Fatalf("spurious strong signal at zero dose: p=%g", e.PValue)
		}
	}
}

func TestHypergeomTailProperties(t *testing.T) {
	// P(X >= 0) == 1; monotone decreasing in k; bounded in [0,1]
	if p := hypergeomTail(100, 20, 30, 0); p != 1 {
		t.Fatalf("tail at 0 = %v", p)
	}
	prev := 1.1
	for k := 0; k <= 20; k++ {
		p := hypergeomTail(100, 20, 30, k)
		if p < 0 || p > 1 {
			t.Fatalf("tail(%d) = %v out of [0,1]", k, p)
		}
		if p > prev+1e-12 {
			t.Fatalf("tail not monotone at k=%d: %v > %v", k, p, prev)
		}
		prev = p
	}
}

func TestFitDoseResponseRecoversSlope(t *testing.T) {
	points := []DosePoint{}
	for d := 0.0; d <= 2.0; d += 0.25 {
		points = append(points, DosePoint{Dose: d, Response: 3*d + 1})
	}
	fit, err := FitDoseResponse(points)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 1e-9 || math.Abs(fit.Intercept-1) > 1e-9 {
		t.Fatalf("fit = %+v, want slope 3 intercept 1", fit)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v for exact line", fit.R2)
	}
}

func TestFitDoseResponseErrors(t *testing.T) {
	if _, err := FitDoseResponse(nil); err == nil {
		t.Fatal("accepted empty input")
	}
	same := []DosePoint{{Dose: 1, Response: 2}, {Dose: 1, Response: 3}}
	if _, err := FitDoseResponse(same); err == nil {
		t.Fatal("accepted degenerate design")
	}
}

func TestFitDoseResponseProperty(t *testing.T) {
	// Property: for any non-degenerate linear data, the fit recovers the
	// generating slope within numerical tolerance.
	f := func(slopeRaw, interceptRaw int8) bool {
		slope := float64(slopeRaw) / 8
		intercept := float64(interceptRaw) / 4
		var pts []DosePoint
		for d := 0.0; d < 3; d += 0.5 {
			pts = append(pts, DosePoint{Dose: d, Response: slope*d + intercept})
		}
		fit, err := FitDoseResponse(pts)
		if err != nil {
			return false
		}
		return math.Abs(fit.Slope-slope) < 1e-6 && math.Abs(fit.Intercept-intercept) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticPathwaysShape(t *testing.T) {
	m := NewGeneModel(500)
	pws := SyntheticPathways(m, rng.New(8), 10, 15)
	if len(pws) != 10 {
		t.Fatalf("pathways = %d", len(pws))
	}
	if pws[0].Name != "radiation-response" || len(pws[0].Genes) == 0 {
		t.Fatalf("first pathway = %+v", pws[0])
	}
	for _, pw := range pws[1:] {
		if len(pw.Genes) != 15 {
			t.Fatalf("pathway %s has %d genes", pw.Name, len(pw.Genes))
		}
	}
}
