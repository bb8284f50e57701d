package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// parked blocks until released: a goroutine of this module that nobody stopped.
func parked(release <-chan struct{}) { <-release }

func TestLeakedFindsAndForgets(t *testing.T) {
	if left := await(time.Second); len(left) != 0 {
		t.Fatalf("goroutines of the module before the test started any:\n%s", strings.Join(left, "\n\n"))
	}
	release := make(chan struct{})
	go parked(release)
	left := await(50 * time.Millisecond)
	if len(left) != 1 || !strings.Contains(left[0], "leakcheck.parked") {
		t.Fatalf("leaked() = %q, want the parked goroutine", left)
	}
	close(release)
	if left := await(time.Second); len(left) != 0 {
		t.Fatalf("still reported after it ended:\n%s", strings.Join(left, "\n\n"))
	}
}
