package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// resultsFile is what a run of every workload writes with -out and what
// -compare reads: the host it ran on and every run's raw result.
type resultsFile struct {
	Host hostInfo  `json:"host"`
	Runs []*Result `json:"runs"`
}

type hostInfo struct {
	Hostname   string `json:"hostname"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values returns the metric's value in every untraced run of the workload.
func (rf *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4), which the driver
// uses. Fewer than two values have no spread: all three are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict classifies metric m between parent runs a and change runs b.
//
//	worse       the change's median is worse by more than the bound
//	better      better by more than the bound, or every run of the change
//	            beats every run of the parent
//	unresolved  the run-to-run spread of either side exceeds the bound, so a
//	            difference of the bound's size could not be seen
//	same        otherwise
func verdict(m metricDef, a, b []float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worseBy := (mb - ma) / ma // positive = worse, for lower-is-better
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		if allBetter(m, a, b) {
			return "better", worseBy
		}
		return "unresolved", worseBy
	}
	switch {
	case worseBy > m.Bound:
		return "worse", worseBy
	case worseBy < -m.Bound:
		return "better", worseBy
	}
	return "same", worseBy
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(m metricDef, a, b []float64) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles applies the end-to-end bounds to two result files, prints
// one row per metric and workload, and reports whether any row is worse.
func compareFiles(w io.Writer, parentPath, changePath string) (worse bool, err error) {
	parent, err := readResults(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readResults(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "parent %s (%s, %d runs)   change %s (%s, %d runs)\n",
		parentPath, parent.Host.Commit, len(parent.Runs), changePath, change.Host.Commit, len(change.Runs))
	fmt.Fprintf(w, "%-17s %-14s %14s %8s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "parent median", "spread", "change median", "spread", "change", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, m := range endToEnd {
			a, b := parent.values(wl.Name, m.Name), change.values(wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-17s %-14s missing in %s\n", wl.Name, m.Name,
					map[bool]string{true: parentPath, false: changePath}[len(a) == 0])
				counts["unresolved"]++
				continue
			}
			v, worseBy := verdict(m, a, b)
			counts[v]++
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			fmt.Fprintf(w, "%-17s %-14s %14.4f %7.2f%% %14.4f %7.2f%% %+7.2f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, 100*spread(a), mb, 100*spread(b), 100*worseBy+0, 100*m.Bound, v)
		}
	}
	var parts []string
	for _, v := range []string{"same", "better", "worse", "unresolved"} {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Fprintf(w, "%s  (change column: + is worse, - is better)\n", strings.Join(parts, ", "))
	return counts["worse"] > 0, nil
}
