package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareFiles prints, for each workload and metric both results files
// hold, the two medians, the interquartile ranges of the samples behind
// them, the relative delta and the bound. It reports false when an
// end-to-end median of B is worse than A's by more than its bound.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	return compareReports(w, a, b), nil
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareReports(w io.Writer, a, b *report) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA\tA IQR\tB\tB IQR\tdelta\tbound\tverdict\t")
	byName := make(map[string]record)
	for _, rec := range a.Workloads {
		byName[rec.Workload] = rec
	}
	printed := make(map[string]bool) // every record of a run carries the same layer metrics
	for _, rb := range b.Workloads {
		ra, found := byName[rb.Workload]
		if !found {
			continue
		}
		for _, d := range e2eMetrics {
			sa, okA := ra.E2E[d.Name]
			sb, okB := rb.E2E[d.Name]
			if !okA || !okB {
				continue
			}
			delta := (sb.Median - sa.Median) / sa.Median
			worse := delta
			if d.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict, ok = "WORSE", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%+.2f%%\t%.0f%%\t%s\t\n",
				rb.Workload, d.Name, sa.Median, sa.Q3-sa.Q1, sb.Median, sb.Q3-sb.Q1,
				100*delta, 100*d.Bound, verdict)
		}
		names := make([]string, 0, len(rb.Layers))
		for name := range rb.Layers {
			if _, ok := ra.Layers[name]; ok && !printed[name] {
				printed[name] = true
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := ra.Layers[name], rb.Layers[name]
			delta := "-"
			if va != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(vb-va)/va)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t-\t%.6g\t-\t%s\t-\t\t\n", rb.Workload, name, va, vb, delta)
		}
	}
	tw.Flush()
	return ok
}
