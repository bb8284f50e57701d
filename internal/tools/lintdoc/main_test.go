package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestClosedSurface runs the check on a fixture module: a func or const only
// its own package selects is reported, and so are a type only an unexported
// field names and a func only another package's test selects; a type an
// exported signature or field names, an Err… sentinel, a func a non-test
// file of the nested bench module selects and an allowed func are not.
func TestClosedSurface(t *testing.T) {
	var got []string
	names, methods := checkClosedSurface("testdata/closed", map[string]bool{"internal/a.Kept": true}, func(format string, args ...any) {
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
		"Measure": true,  // selected only by another package's test
		"Wide":    false, // selected by the nested bench module
		"Kept":    false, // allowed
	}
	for name, reported := range cases {
		t.Run(name, func(t *testing.T) {
			hit := strings.Contains(all, "exported "+name+" is selected by no program")
			if hit != reported {
				t.Fatalf("%s reported = %v, want %v (violations %q)", name, hit, reported, got)
			}
		})
	}
	if len(got) != 4 {
		t.Fatalf("violations = %q, want exactly four", got)
	}
	if names != 9 || methods != 1 {
		t.Fatalf("counted %d names and %d methods, want 9 and 1", names, methods)
	}
	if !strings.Contains(all, "internal/a/a.go:26: exported Local ") {
		t.Fatalf("violations %q do not point at Local's line", got)
	}
}
