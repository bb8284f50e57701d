package main

import (
	"fmt"
	"os"
	"reflect"
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
	names, methods, fields := checkClosedSurface("testdata/closed", map[string]bool{"internal/a.Kept": true}, func(format string, args ...any) {
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
	if names != 9 || methods != 2 || fields != 2 {
		t.Fatalf("counted %d names, %d methods and %d struct fields, want 9, 2 and 2 (Shape's N and U)", names, methods, fields)
	}
	if !strings.Contains(all, "internal/a/a.go:26: exported Local ") {
		t.Fatalf("violations %q do not point at Local's line", got)
	}
}

// TestLinked runs the method-level check on the fixture module: a func or
// method that only a test calls, or that only dead code calls, is reported;
// one the cmd/ program or the nested bench module links, and an allowed
// one, are not.
func TestLinked(t *testing.T) {
	var got []string
	checkLinked("testdata/closed", map[string]string{"internal/a.Kept": "a harness"}, func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	})
	all := strings.Join(got, "\n")
	cases := map[string]bool{
		"internal/a.Measure":     true,  // only a test calls it
		"internal/a.Unit.Double": true,  // a method only a test calls
		"internal/a.Local":       true,  // only dead code calls it
		"internal/a.use":         true,  // dead code
		"internal/a.Shape.Area":  false, // the cmd/ program calls it
		"internal/a.Wide":        false, // the bench module's program calls it
		"internal/a.Kept":        false, // allowed
	}
	for key, reported := range cases {
		if hit := strings.Contains(all, " "+key+" is linked into no program"); hit != reported {
			t.Errorf("%s reported = %v, want %v (violations %q)", key, hit, reported, got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("violations = %q, want exactly four", got)
	}
}

// TestLineTotals counts the fixture module's lines that are neither blank
// nor comment: those of internal/a and cmd/tool, those of internal/b's
// test, and none of the nested bench module's. A block comment and a
// comment after code take no line and add none; a raw string counts every
// line it spans.
func TestLineTotals(t *testing.T) {
	var got []string
	code, tests := lineTotals("testdata/closed", func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	})
	if code != 21 || tests != 13 || len(got) != 0 {
		t.Fatalf("counted %d code and %d test lines (violations %q), want 21 and 13", code, tests, got)
	}
	src := "// Package p.\npackage p\n\n/* a\nblock */\nvar s = `one\n\n// not a comment\n` // trailing\n\nfunc f() {} /* c */\n"
	if n := codeLines([]byte(src)); n != 6 {
		t.Fatalf("codeLines = %d, want 6: package, the four lines of the raw string, func", n)
	}
}

// TestLayout holds the fixture module's README layout table to its tree,
// then a drifted copy that drops internal/b's row and names a path that
// does not exist: both drifts are reported, and a path named outside the
// table is not. The repository's own README passes.
func TestLayout(t *testing.T) {
	layout := func(root string, readme []byte) []string {
		var got []string
		checkLayout(root, readme, func(format string, args ...any) {
			got = append(got, fmt.Sprintf(format, args...))
		})
		return got
	}
	readme, err := os.ReadFile("testdata/closed/README.md")
	if err != nil {
		t.Fatal(err)
	}
	if got := layout("testdata/closed", readme); len(got) != 0 {
		t.Fatalf("fixture README: violations %q, want none", got)
	}
	drifted := strings.Replace(string(readme), "| `internal/b` | Its test |", "| `internal/gone` | Moved away |", 1)
	want := []string{
		"README.md: layout table names internal/gone, which does not exist",
		"README.md: layout table does not name internal/b",
	}
	if got := layout("testdata/closed", []byte(drifted)); !reflect.DeepEqual(got, want) {
		t.Fatalf("drifted README: violations %q, want %q", got, want)
	}
	own, err := os.ReadFile("../../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if got := layout("../../..", own); len(got) != 0 {
		t.Fatalf("the repository's README: violations %q", got)
	}
}
