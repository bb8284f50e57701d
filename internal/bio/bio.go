// Package bio implements the computational substrate of the Signature
// Detection pipeline (paper §II-B): synthetic VCF variant generation (the
// stand-in for the 15 proprietary low-dose-radiation samples), VEP-style
// functional annotation against a synthetic gene model, pathway
// enrichment over KEGG/GO-style gene sets using a hypergeometric test,
// and dose-response association by least-squares regression. The
// pipeline's tasks execute these functions as real compute (Func
// payloads), not just modelled durations.
package bio

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Variant is one VCF record.
type Variant struct {
	Chrom string
	Pos   int
	Ref   string
	Alt   string
	// Qual is the call quality.
	Qual float64
}

// Annotation is a VEP-style functional annotation of one variant.
type Annotation struct {
	Variant Variant
	Gene    string
	// Consequence is the predicted effect class.
	Consequence string
	// Impact grades severity: HIGH, MODERATE, LOW, MODIFIER.
	Impact string
}

var bases = []string{"A", "C", "G", "T"}

var consequences = []struct {
	name   string
	impact string
	weight int
}{
	{"stop_gained", "HIGH", 1},
	{"missense_variant", "MODERATE", 6},
	{"splice_region_variant", "LOW", 4},
	{"synonymous_variant", "LOW", 8},
	{"intron_variant", "MODIFIER", 20},
	{"intergenic_variant", "MODIFIER", 12},
}

// GeneModel is a synthetic genome annotation: genes laid out over
// chromosome coordinates.
type GeneModel struct {
	genes []string
}

// NewGeneModel creates a model of n genes named GENE0000..
func NewGeneModel(n int) *GeneModel {
	if n <= 0 {
		n = 500
	}
	m := &GeneModel{}
	for i := 0; i < n; i++ {
		m.genes = append(m.genes, fmt.Sprintf("GENE%04d", i))
	}
	return m
}

// Genes returns the gene universe.
func (m *GeneModel) Genes() []string { return m.genes }

// GeneAt maps a position to its containing gene (deterministic binning).
func (m *GeneModel) GeneAt(chrom string, pos int) string {
	h := 0
	for _, c := range chrom {
		h = h*31 + int(c)
	}
	idx := (h + pos/1000) % len(m.genes)
	if idx < 0 {
		idx += len(m.genes)
	}
	return m.genes[idx]
}

// GenerateVCF produces a deterministic synthetic sample of n variants.
// Dose shifts the mutational burden: higher dose biases positions toward
// a "radiation-sensitive" subset of the genome, which downstream
// enrichment must be able to detect.
func GenerateVCF(src *rng.Source, n int, dose float64) []Variant {
	out := make([]Variant, 0, n)
	for i := 0; i < n; i++ {
		chrom := fmt.Sprintf("chr%d", 1+src.Intn(22))
		pos := 1 + src.Intn(50_000_000)
		if dose > 0 && src.Float64() < dose {
			// radiation-associated hotspot band: a ~25-gene region at the
			// start of chr1 that receives disproportionate hits at high
			// dose — the signal the enrichment stage must recover
			chrom = "chr1"
			pos = 1 + src.Intn(25_000)
		}
		ref := bases[src.Intn(4)]
		alt := bases[src.Intn(4)]
		for alt == ref {
			alt = bases[src.Intn(4)]
		}
		out = append(out, Variant{
			Chrom: chrom, Pos: pos, Ref: ref, Alt: alt,
			Qual: 30 + 40*src.Float64(),
		})
	}
	return out
}

// Annotate performs VEP-style annotation of variants against the model.
func Annotate(m *GeneModel, src *rng.Source, variants []Variant) []Annotation {
	out := make([]Annotation, 0, len(variants))
	total := 0
	for _, c := range consequences {
		total += c.weight
	}
	for _, v := range variants {
		pick := src.Intn(total)
		var cons struct {
			name   string
			impact string
			weight int
		}
		for _, c := range consequences {
			if pick < c.weight {
				cons = c
				break
			}
			pick -= c.weight
		}
		out = append(out, Annotation{
			Variant:     v,
			Gene:        m.GeneAt(v.Chrom, v.Pos),
			Consequence: cons.name,
			Impact:      cons.impact,
		})
	}
	return out
}

// GeneHits counts annotated variants per gene, excluding MODIFIER-impact
// (non-coding) annotations.
func GeneHits(anns []Annotation) map[string]int {
	hits := make(map[string]int)
	for _, a := range anns {
		if a.Impact == "MODIFIER" {
			continue
		}
		hits[a.Gene]++
	}
	return hits
}

// Pathway is a named gene set (KEGG/GO analogue).
type Pathway struct {
	Name  string
	Genes []string
}

// SyntheticPathways builds k pathways over the model's genes. The first
// pathway ("radiation-response") collects the hotspot genes that
// GenerateVCF biases toward at high dose.
func SyntheticPathways(m *GeneModel, src *rng.Source, k, genesPer int) []Pathway {
	if k <= 0 {
		k = 20
	}
	if genesPer <= 0 {
		genesPer = 25
	}
	genes := m.Genes()
	out := make([]Pathway, 0, k)
	// hotspot pathway: genes covering the low-coordinate chr1 band that
	// GenerateVCF biases toward. GeneAt bins by pos/1000; collect genes
	// appearing for positions < 25k on chr1.
	seen := map[string]bool{}
	var hot []string
	for pos := 1; pos < 25_000 && len(hot) < genesPer; pos += 1000 {
		g := m.GeneAt("chr1", pos)
		if !seen[g] {
			seen[g] = true
			hot = append(hot, g)
		}
	}
	out = append(out, Pathway{Name: "radiation-response", Genes: hot})
	for i := 1; i < k; i++ {
		perm := src.Perm(len(genes))
		var gs []string
		for _, idx := range perm[:genesPer] {
			gs = append(gs, genes[idx])
		}
		sort.Strings(gs)
		out = append(out, Pathway{Name: fmt.Sprintf("pathway-%03d", i), Genes: gs})
	}
	return out
}

// Enrichment is the result of testing one pathway.
type Enrichment struct {
	Pathway string
	// Overlap is the number of hit genes in the pathway.
	Overlap int
	// PValue is the hypergeometric tail probability of seeing at least
	// Overlap hits by chance.
	PValue float64
}

// Enrich tests every pathway against the hit set using the
// hypergeometric distribution over the gene universe.
func Enrich(m *GeneModel, hits map[string]int, pathways []Pathway) []Enrichment {
	universe := len(m.Genes())
	hitSet := make(map[string]bool, len(hits))
	for g := range hits {
		hitSet[g] = true
	}
	drawn := len(hitSet)
	out := make([]Enrichment, 0, len(pathways))
	for _, pw := range pathways {
		overlap := 0
		for _, g := range pw.Genes {
			if hitSet[g] {
				overlap++
			}
		}
		p := hypergeomTail(universe, len(pw.Genes), drawn, overlap)
		out = append(out, Enrichment{Pathway: pw.Name, Overlap: overlap, PValue: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PValue != out[j].PValue {
			return out[i].PValue < out[j].PValue
		}
		return out[i].Pathway < out[j].Pathway
	})
	return out
}

// hypergeomTail returns P(X >= k) for X ~ Hypergeom(N, K, n): the
// probability that drawing n items from a universe of N containing K
// marked items yields at least k marked.
func hypergeomTail(N, K, n, k int) float64 {
	if k <= 0 {
		return 1
	}
	upper := K
	if n < upper {
		upper = n
	}
	var tail float64
	for x := k; x <= upper; x++ {
		tail += math.Exp(lnChoose(K, x) + lnChoose(N-K, n-x) - lnChoose(N, n))
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	return lgN - lgK - lgNK
}

// DosePoint is one (dose, response) observation, e.g. pathway hit count
// per sample.
type DosePoint struct {
	Dose     float64
	Response float64
}

// DoseResponse is the fitted association.
type DoseResponse struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
}

// FitDoseResponse fits response = slope·dose + intercept by least
// squares.
func FitDoseResponse(points []DosePoint) (DoseResponse, error) {
	if len(points) < 2 {
		return DoseResponse{}, fmt.Errorf("bio: need >= 2 dose points, have %d", len(points))
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(points))
	for _, p := range points {
		sx += p.Dose
		sy += p.Response
		sxx += p.Dose * p.Dose
		sxy += p.Dose * p.Response
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return DoseResponse{}, fmt.Errorf("bio: degenerate dose design (all doses equal)")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	meanY := sy / n
	var ssTot, ssRes float64
	for _, p := range points {
		pred := slope*p.Dose + intercept
		ssTot += (p.Response - meanY) * (p.Response - meanY)
		ssRes += (p.Response - pred) * (p.Response - pred)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return DoseResponse{Slope: slope, Intercept: intercept, R2: r2}, nil
}
