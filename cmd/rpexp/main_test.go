package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/xproc"
)

// TestMain lets this test binary double as the pilot-agent executable the
// xproc golden re-executes (see internal/experiments/xproc_test.go).
func TestMain(m *testing.M) {
	xproc.MaybeRunAgent()
	os.Exit(m.Run())
}

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
		{"-router", "nosuch"},
		{"-requests", "-1"},
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

// TestGoldenSections pins every section whose output is deterministic to its
// file under testdata: the count tables as the pre-registry binary printed
// them, and the paper's figures (Exp 1-3), which run on the virtual clock and
// must read the same at any GOMAXPROCS. The full Exp 2 sweep (1,024
// requests per client) is compared once, at the host's GOMAXPROCS; its
// 64-request sweep carries the check at 1, 2 and 8.
func TestGoldenSections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven experiments, one of them over agent processes")
	}
	anyProcs := map[string]bool{"exp1": true, "exp2-r64": true, "exp3": true}
	for golden, args := range map[string][]string{
		"table1":     {"-exp", "table1"},
		"table2":     {"-exp", "table2"},
		"svcfail":    {"-exp", "svcfail"},
		"frag":       {"-exp", "frag"},
		"frag-churn": {"-exp", "frag", "-churn"},
		"crashrec":   {"-exp", "crashrec"},
		"xproc":      {"-exp", "xproc"},
		"route":      {"-exp", "route"},
		"exp1":       {"-exp", "1"},
		"exp2":       {"-exp", "2"},
		"exp2-r64":   {"-exp", "2", "-requests", "64"},
		"exp3":       {"-exp", "3"},
	} {
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			check := func(t *testing.T) {
				var out, errb bytes.Buffer
				if code := run(experiments.Registry(), args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Fatalf("output differs from testdata/%s.txt\n--- got\n%s--- want\n%s", golden, out.String(), want)
				}
			}
			if !anyProcs[golden] {
				check(t)
				return
			}
			for _, n := range []int{1, 2, 8} {
				t.Run(fmt.Sprint("GOMAXPROCS=", n), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
					check(t)
				})
			}
		})
	}
}
