package b

import (
	"testing"

	"example.com/closed/internal/a"
)

func TestMeasure(t *testing.T) {
	if a.Measure == nil {
		t.Fatal("no Measure")
	}
}
