package scheduler

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the run if a test left a goroutine of this module behind: a
// scheduler's loop outlives only a scheduler nobody closed.
func TestMain(m *testing.M) { leakcheck.Main(m) }
