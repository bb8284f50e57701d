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

// Words returns the reply's text: Text, or for a drawn reply the words its
// draw spells: "[model]" and then, for the i-th of OutputTokens draws of
// the stream at TextFrom (rng.Draw), the word of vocabulary it picks as
// Intn would. A model draws its reply's words (rng.Source.Skip) and leaves
// the spelling to whoever reads the text, who replays the draws from the
// skipped run's first state with a counter. The builder is sized once for
// OutputTokens of the longest word, so the text is the one allocation.
func (r InferenceReply) Words() string {
	if !r.TextDrawn || r.OutputTokens <= 0 {
		return r.Text
	}
	var sb strings.Builder
	sb.Grow(len(r.Model) + 2 + r.OutputTokens*(1+longestWord))
	sb.WriteByte('[')
	sb.WriteString(r.Model)
	sb.WriteByte(']')
	for i := 0; i < r.OutputTokens; i++ {
		sb.WriteByte(' ')
		sb.WriteString(vocabulary[rng.Draw(r.TextFrom, i)%uint64(len(vocabulary))])
	}
	return sb.String()
}
