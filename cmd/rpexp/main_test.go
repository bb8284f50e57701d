package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// allOrder is the order `-exp all` has always run the experiments in.
var allOrder = []string{"table1", "table2", "1", "frag", "route", "svcfail", "load", "scale", "hotspot", "xproc", "crashrec", "2", "3"}

func TestRegistryNamesAndOrder(t *testing.T) {
	var names []string
	for _, e := range experiments.Registry() {
		if slices.Contains(names, e.Name) {
			t.Errorf("experiment name %q registered twice", e.Name)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q has no title or no Run", e.Name)
		}
		names = append(names, e.Name)
	}
	if !slices.Equal(names, allOrder) {
		t.Fatalf("registry order = %v, want %v", names, allOrder)
	}
}

// stubRegistry records which entries ran, in order; "bad" fails after
// producing one section.
func stubRegistry(ran *[]string) []experiments.Experiment {
	entry := func(name string, err error) experiments.Experiment {
		return experiments.Experiment{Name: name, Title: "title of " + name,
			Run: func(context.Context, experiments.Options) ([]experiments.Section, error) {
				*ran = append(*ran, name)
				return []experiments.Section{{Title: "section " + name, Tables: []metrics.Table{{Title: "table " + name}}}}, err
			}}
	}
	return []experiments.Experiment{entry("a", nil), entry("bad", errors.New("boom")), entry("c", nil)}
}

func TestRunSelectsInRegistryOrder(t *testing.T) {
	var ran []string
	var out, errb bytes.Buffer
	if code := run(stubRegistry(&ran), []string{"-exp", "c"}, &out, &errb); code != 0 {
		t.Fatalf("-exp c: exit %d, stderr %q", code, errb.String())
	}
	if want := "== section c ==\ntable c\n\n\n"; out.String() != want || !slices.Equal(ran, []string{"c"}) {
		t.Fatalf("-exp c ran %v and printed %q, want %q", ran, out.String(), want)
	}

	ran, out = nil, bytes.Buffer{}
	code := run(stubRegistry(&ran), nil, &out, &errb) // -exp all
	if code != 1 || !slices.Equal(ran, []string{"a", "bad"}) {
		t.Fatalf("all: exit %d after running %v, want exit 1 after a, bad", code, ran)
	}
	if !strings.Contains(out.String(), "== section bad ==") || !strings.Contains(errb.String(), "title of bad: boom") {
		t.Fatalf("failed experiment: stdout %q, stderr %q", out.String(), errb.String())
	}
}

func TestRunRejectsNonsenseBeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "nosuch"},
		{"-deploy", "nowhere"},
		{"-scaling", "sideways"},
		{"-counts", "1,x"},
		{"-sched", "nosuch"},
		{"-requests", "-1"},
		{"-balance", "nosuch"},
		{"-scenarios", "nosuch"},
		{"-platform", "nosuch"},
		{"-nosuchflag"},
	} {
		var ran []string
		var out, errb bytes.Buffer
		if code := run(stubRegistry(&ran), args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if len(ran) != 0 || out.Len() != 0 || errb.Len() == 0 {
			t.Errorf("%v: ran %v, stdout %q, stderr %q; want nothing run, nothing printed, a diagnostic", args, ran, out.String(), errb.String())
		}
	}
	var errb bytes.Buffer
	run(experiments.Registry(), []string{"-exp", "nosuch"}, &bytes.Buffer{}, &errb)
	for _, name := range allOrder {
		if !strings.Contains(errb.String(), "\n  "+name+" ") {
			t.Errorf("unknown -exp does not list %q:\n%s", name, errb.String())
		}
	}
}

// TestRunPrintsGolden runs one real registry entry through the whole
// command, rpexp's flag defaults included, and compares what it prints with
// the golden file internal/experiments checks that experiment's sections
// against.
func TestRunPrintsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "svcfail.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(experiments.Registry(), []string{"-exp", "svcfail"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from svcfail.txt\n--- got\n%s--- want\n%s", out.String(), want)
	}
}
