package pilot

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the run if a test left a goroutine of this module behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
