package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// runKey names one execution of a registry entry: the experiment, its
// options and the GOMAXPROCS it ran at.
type runKey struct {
	name  string
	o     Options
	procs int
}

// memoRun is one execution and what it returned.
type memoRun struct {
	once     sync.Once
	sections []Section
	err      error
}

var (
	memoMu sync.Mutex
	memo   = map[runKey]*memoRun{}
)

// run returns the sections registry entry name produces under o at the
// current GOMAXPROCS, and fails t on the entry's error. The entry executes
// the first time a test asks for that key; every later caller, at any
// -count, reads that one execution, so the golden comparison and the
// property tests check the same run.
func run(t *testing.T, name string, o Options) []Section {
	t.Helper()
	e := entry(t, name)
	key := runKey{name, o, runtime.GOMAXPROCS(0)}
	memoMu.Lock()
	r := memo[key]
	if r == nil {
		r = new(memoRun)
		memo[key] = r
	}
	memoMu.Unlock()
	r.once.Do(func() { r.sections, r.err = e.Run(context.Background(), o) })
	if r.err != nil {
		t.Fatalf("-exp %s %+v: %v", name, o, r.err)
	}
	return r.sections
}

// entry returns the registry entry called name.
func entry(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range Registry() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q in the registry", name)
	return Experiment{}
}

// rows returns tab's rows without its wall-clock column, the one cell no
// run replays.
func rows(tab metrics.Table) [][]string {
	wall := slices.Index(tab.Header, "wall")
	out := make([][]string, len(tab.Rows))
	for i, r := range tab.Rows {
		out[i] = r
		if wall >= 0 {
			out[i] = slices.Delete(slices.Clone(r), wall, wall+1)
		}
	}
	return out
}

// checkRows fails t unless tab holds exactly want, row by row, wall-clock
// column left out.
func checkRows(t *testing.T, tab metrics.Table, want [][]string) {
	t.Helper()
	if got := rows(tab); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("%s:\n got  %q\n want %q", tab.Title, got, want)
	}
}

// column returns every row's cell under the named header of tab.
func column(t *testing.T, tab metrics.Table, name string) []string {
	t.Helper()
	i := slices.Index(tab.Header, name)
	if i < 0 {
		t.Fatalf("table %q has no column %q (header %v)", tab.Title, name, tab.Header)
	}
	out := make([]string, len(tab.Rows))
	for r, row := range tab.Rows {
		out[r] = row[i]
	}
	return out
}

// TestValidate: Validate asks the experiments' own lookups, so every name
// they know passes, a homogeneous platform included (route's run refuses
// it), and every unknown name is reported, all of them in one error.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
		bad  []string // what the error names; none: valid
	}{
		{"zero", Options{}, nil},
		{"rpexp defaults", Options{Deploy: "both", Scaling: "both", Platform: "hetero"}, nil},
		{"known names", Options{Platform: "delta", Sched: "best-fit", Scenarios: "steady, churn",
			Balance: "p2c, round-robin,least-loaded"}, nil},
		{"one bad picker in a list", Options{Balance: "p2c,nosuch"}, []string{`"nosuch"`}},
		{"every bad option at once", Options{Deploy: "xdeploy", Scaling: "xscaling", Counts: "1,xcount",
			Sched: "xsched", Platform: "xplatform", Scenarios: "xscenario", Balance: "xpicker", Requests: -1},
			[]string{"xdeploy", "xscaling", "xcount", "xsched", "xplatform", "xscenario", "xpicker", "-requests -1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate()
			if (err != nil) != (len(tc.bad) > 0) {
				t.Fatalf("Validate(%+v) = %v, want an error naming %q", tc.o, err, tc.bad)
			}
			for _, bad := range tc.bad {
				if !strings.Contains(err.Error(), bad) {
					t.Errorf("error %q does not name %s", err, bad)
				}
			}
		})
	}
}

// TestGoldenSections pins every section whose output is deterministic to its
// file under testdata, rendered as rpexp prints it: the count tables, and the
// paper's figures (Exp 1-3), which run on the virtual clock and must read the
// same at any GOMAXPROCS. The full Exp 2 sweep (1,024 requests per client) is
// compared once, at the GOMAXPROCS the test runs at; its 64-request sweep
// carries the check at 1, 2 and 8.
func TestGoldenSections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven experiments, one of them over agent processes")
	}
	anyProcs := map[string]bool{"exp1": true, "exp2-r64": true, "exp3": true}
	for golden, exp := range map[string]struct {
		name string
		o    Options
	}{
		"table1":     {"table1", Options{}},
		"table2":     {"table2", Options{}},
		"svcfail":    {"svcfail", Options{}},
		"frag":       {"frag", Options{}},
		"frag-churn": {"frag", Options{Churn: true}},
		"crashrec":   {"crashrec", Options{}},
		"xproc":      {"xproc", Options{}},
		"route":      {"route", Options{}},
		"exp1":       {"1", Options{}},
		"exp2":       {"2", Options{}},
		"exp2-r64":   {"2", Options{Requests: 64}},
		"exp3":       {"3", Options{}},
	} {
		t.Run(golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", golden+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			check := func(t *testing.T) {
				var out strings.Builder
				for _, s := range run(t, exp.name, exp.o) {
					out.WriteString(s.Render())
				}
				if out.String() != string(want) {
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
