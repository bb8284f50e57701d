package b

import (
	"testing"

	"example.com/closed/internal/a"
)

func TestMeasure(t *testing.T) {
	if a.Unit(1).Double() != 2 {
		t.Fatal("no Double")
	}
	if a.Measure == nil {
		t.Fatal("no Measure")
	}
}
