package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// compare prints, for every workload and metric found in two directories
// of result files, each side's median and quartiles and the change of B
// against A. An end-to-end metric is "unresolved" where either side's
// spread (interquartile range over median) is wider than its bound;
// "worse" where B's median is worse than A's by more than the bound; and
// "ok" otherwise. Per-layer metrics
// have no bound and get no verdict.
func compare(out io.Writer, dirA, dirB string) error {
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	bounds := map[string]metricDef{}
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	fmt.Fprintf(out, "%-20s %-30s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "delta", "bound", "verdict")
	for _, w := range sortedKeys(a) {
		for _, m := range sortedKeys(a[w]) {
			va, vb := a[w][m], b[w][m]
			if len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			delta := ratio(mb-ma, ma)
			verdict, bound := "", ""
			if d, ok := bounds[m]; ok {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				worse := delta
				if d.Better == "higher" {
					worse = -delta
				}
				switch {
				case ratio(a3-a1, ma) > d.Bound || ratio(b3-b1, mb) > d.Bound:
					verdict = "unresolved"
				case worse > d.Bound:
					verdict = "worse"
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(out, "%-20s %-30s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %+7.1f%% %6s  %s\n",
				w, m, a1, ma, a3, b1, mb, b3, 100*delta, bound, verdict)
		}
	}
	return nil
}

// loadResults reads every result file in dir into workload → metric →
// values, one value per run.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[string][]float64{}
		}
		for name, m := range rf.Result.Metrics {
			out[rf.Workload][name] = append(out[rf.Workload][name], m.Value)
		}
	}
	return out, nil
}
