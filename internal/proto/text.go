package proto

import (
	"strings"

	"repro/internal/rng"
)

// vocabulary is the word list of the simulated models' pseudo-text.
var vocabulary = []string{
	"radiation", "dose", "cell", "pathway", "gene", "signature", "variant",
	"response", "model", "inference", "workflow", "pilot", "service", "task",
	"analysis", "protein", "expression", "cluster", "sample", "annotation",
}

// longestWord is the length of vocabulary's longest word.
var longestWord = func() int {
	n := 0
	for _, w := range vocabulary {
		n = max(n, len(w))
	}
	return n
}()

// Spell returns model's pseudo-text of n words drawn from src: "[model]"
// and then, for each of n Intn draws, that word of vocabulary. A model
// draws its reply's words (rng.Source.Skip) and leaves the spelling to
// whoever reads the text, who replays the draws from rng.New of the
// skipped run's first state. The builder is sized once for n of the
// longest word, so the text is the one allocation.
func Spell(model string, src *rng.Source, n int) string {
	if n <= 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(len(model) + 2 + n*(1+longestWord))
	sb.WriteByte('[')
	sb.WriteString(model)
	sb.WriteByte(']')
	for i := 0; i < n; i++ {
		sb.WriteByte(' ')
		sb.WriteString(vocabulary[src.Intn(len(vocabulary))])
	}
	return sb.String()
}

// Words returns the reply's text: Text, or for a drawn reply the words its
// draw spells.
func (r InferenceReply) Words() string {
	if r.TextDrawn && r.OutputTokens > 0 {
		return Spell(r.Model, rng.New(r.TextFrom), r.OutputTokens)
	}
	return r.Text
}
