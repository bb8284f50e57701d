// Package leakcheck fails a package's tests when they leave goroutines of this
// module running: the race detector and a passing test say nothing about a
// flusher, a scheduler loop or a watcher that nobody stopped. It uses the
// runtime's own stack dump and nothing else.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// module marks a frame (or a "created by" line) of this module's packages.
const module = "repro/internal/"

// grace is how long a goroutine that was told to stop has to end.
const grace = 2 * time.Second

// Main is a package's TestMain: it runs the tests and, if they passed, waits up
// to two seconds for every goroutine with a repro/internal/ frame to end. It
// prints the top frames of those that remain and fails the run.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := await(grace); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines of this module still running %v after the tests:\n\n%s\n",
				len(left), grace, strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// await polls until no goroutine of the module is left or d has passed, and
// returns the top frames of the ones left.
func await(d time.Duration) []string {
	deadline := time.Now().Add(d)
	for {
		left := leaked()
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leaked returns the head of the stack of every goroutine but the caller's
// that has a frame of the module.
func leaked() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The dump starts with the calling goroutine: TestMain's.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if !strings.Contains(g, module) {
			continue
		}
		// The header, then three frames of two lines each.
		lines := strings.Split(g, "\n")
		out = append(out, strings.Join(lines[:min(len(lines), 7)], "\n"))
	}
	return out
}
