package journal

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the run if a test left a goroutine of this module behind: a
// writer's flusher outlives only a writer nobody closed.
func TestMain(m *testing.M) { leakcheck.Main(m) }
