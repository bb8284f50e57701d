package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestClosedSurface runs the check on a fixture module: a func or const only
// its own package selects is reported, and so is a type only an unexported
// field names; a type an exported signature or field names, an Err…
// sentinel and a func only another package's test selects are not.
func TestClosedSurface(t *testing.T) {
	var got []string
	checkClosedSurface("testdata/closed", func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	})
	all := strings.Join(got, "\n")
	cases := map[string]bool{
		"Local":   true,  // selected only inside its own package
		"Limit":   true,  // a const, selected only inside its own package
		"Secret":  true,  // named only by an unexported field
		"Shape":   false, // named by Measure's signature
		"Unit":    false, // named by Shape's exported field
		"ErrGone": false, // a sentinel
		"Measure": false, // selected by another package's test
	}
	for name, reported := range cases {
		t.Run(name, func(t *testing.T) {
			hit := strings.Contains(all, "exported "+name+" is selected by no other package")
			if hit != reported {
				t.Fatalf("%s reported = %v, want %v (violations %q)", name, hit, reported, got)
			}
		})
	}
	if len(got) != 3 {
		t.Fatalf("violations = %q, want exactly three", got)
	}
	if !strings.Contains(all, "internal/a/a.go:20: exported Local ") {
		t.Fatalf("violations %q do not point at Local's line", got)
	}
}
