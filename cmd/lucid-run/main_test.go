package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestGoldenPipelines pins each pipeline's report to its file under testdata.
// The pipelines run on the virtual clock, so the report must read the same on
// every run and at any GOMAXPROCS. A deliberate change to a report means
// regenerating its file: lucid-run -pipeline uq > testdata/uq.txt.
func TestGoldenPipelines(t *testing.T) {
	for _, name := range []string{"cellpainting", "signature", "uq"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 8} {
				t.Run(fmt.Sprint("GOMAXPROCS=", n), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
					var out, errb bytes.Buffer
					if code := run([]string{"-pipeline", name}, &out, &errb); code != 0 {
						t.Fatalf("exit %d: %s", code, errb.String())
					}
					if !bytes.Equal(out.Bytes(), want) {
						t.Fatalf("output differs from testdata/%s.txt\n--- got\n%s--- want\n%s", name, out.String(), want)
					}
				})
			}
		})
	}
}

func TestRunRejectsNonsense(t *testing.T) {
	for _, args := range [][]string{
		{"-pipeline", "nosuch"},
		{"-scale", "1000"},
		{"-nosuchflag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 || errb.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q; want nothing printed, a diagnostic", args, out.String(), errb.String())
		}
	}
}
