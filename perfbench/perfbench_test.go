package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/simnet"
)

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that every named metric is printed with its unit, that the
// result line has exactly its four keys, and that what the workload
// measures is not left at zero.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/e2e", true: "/trace"}[trace]
			t.Run(name, func(t *testing.T) {
				rep, err := w.run(runConfig{seed: 3, seconds: time.Second, trace: trace, setupReps: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.wrong) > 0 {
					t.Fatalf("correctness gate fired: %v", rep.wrong)
				}
				res := buildResult(rep, trace)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", d.Name, m.Value)
					}
					// End-to-end metrics are never 0; a per-layer timing is
					// not 0 on a workload it names. Residuals (an end-to-end
					// time minus probe times) may take either sign.
					residual := d.Name == "core.dispatch_us" || d.Name == "solver.self_us_per_iter"
					timing := (d.Unit == "s" || d.Unit == "us") && !residual
					if (!trace || (timing && strings.Contains(d.Explains, w.name))) && m.Value <= 0 {
						t.Errorf("metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				got := sortedKeys(keys)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(got, want) {
					t.Errorf("result keys %v, want %v", got, want)
				}
			})
		}
	}
}

// TestGatesFire feeds each correctness gate a perturbed value.
func TestGatesFire(t *testing.T) {
	flip := func(v []float64, i int) []float64 {
		p := slices.Clone(v)
		p[i] = math.Float64frombits(math.Float64bits(p[i]) ^ 1)
		return p
	}
	want := []float64{1, 2, 3, 4}

	t.Run("mul y", func(t *testing.T) {
		r := newReport()
		checkMul(r, core.TaskMode, 0, slices.Clone(want), want)
		if len(r.wrong) != 0 {
			t.Fatalf("identical y gated: %v", r.wrong)
		}
		checkMul(r, core.TaskMode, 0, flip(want, 2), want)
		if len(r.wrong) != 1 {
			t.Fatalf("perturbed y not gated: %v", r.wrong)
		}
	})

	t.Run("solve x and iterations", func(t *testing.T) {
		r := newReport()
		checkSolve(r, 0, 163, 163, slices.Clone(want), want)
		if len(r.wrong) != 0 {
			t.Fatalf("identical solve gated: %v", r.wrong)
		}
		checkSolve(r, 0, 163, 163, flip(want, 0), want)
		checkSolve(r, 0, 164, 163, slices.Clone(want), want)
		if len(r.wrong) != 2 {
			t.Fatalf("perturbed x and iteration count: %d gates, want 2: %v", len(r.wrong), r.wrong)
		}
	})

	t.Run("sim events and crossover", func(t *testing.T) {
		points := []simnet.SweepPoint{
			{Ranks: 64, Mode: core.TaskMode.String(), TimePerIter: 1, Events: simEvents - 2},
			{Ranks: 64, Mode: core.VectorNaiveOverlap.String(), TimePerIter: 2, Events: 1},
			{Ranks: 256, Mode: core.TaskMode.String(), TimePerIter: 2, Events: 0},
			{Ranks: 256, Mode: core.VectorNaiveOverlap.String(), TimePerIter: 1, Events: 1},
		}
		r := newReport()
		checkSweep(r, points)
		if len(r.wrong) != 0 {
			t.Fatalf("reference answer gated: %v", r.wrong)
		}
		points[0].Events++
		checkSweep(r, points)
		if len(r.wrong) != 1 {
			t.Fatalf("perturbed event count: %v", r.wrong)
		}
		points[0].Events--
		points[2].TimePerIter = 0.5 // task mode wins everywhere: no crossover
		checkSweep(r, points)
		if len(r.wrong) != 2 {
			t.Fatalf("missing crossover: %v", r.wrong)
		}
	})

	t.Run("served y", func(t *testing.T) {
		spec := serve.Spec{Kind: "random", N: 300, Bandwidth: 8, PerRow: 4, Seed: 1, SPD: true}
		ver, err := serve.NewVerifier(spec, serve.MatrixInfo{Rows: 300, Ranks: 2, Mode: core.TaskMode.String()})
		if err != nil {
			t.Fatal(err)
		}
		defer ver.Close()
		y, err := ver.Expected(serve.OpMul, 5, serveIters, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := newReport()
		checkServed(r, ver, serve.OpMul, 5, slices.Clone(y))
		if len(r.wrong) != 0 {
			t.Fatalf("reference y gated: %v", r.wrong)
		}
		checkServed(r, ver, serve.OpMul, 5, flip(y, 7))
		if len(r.wrong) != 1 {
			t.Fatalf("perturbed y not gated: %v", r.wrong)
		}
	})
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
//
//	root [0,100]
//	├── a [10,40]      └── a1 [15,20]
//	├── b [30,60]      (overlaps a: the union counts once)
//	└── c [90,120]     (reaches past root: clipped)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 25, 3: 5, 4: 30, 5: 30} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	if got := selfByName(spans, self, "root").quantile(0.5); got != 40 {
		t.Errorf("selfByName(root) = %v, want 40", got)
	}
}

// TestQuartilesMatchPython pins quartiles and median to Python's
// statistics.quantiles(v, n=4) and statistics.median, which judge spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 9, 3, 7, 2}, 1.75, 4, 7.5},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 || median(c.v) != c.med {
			t.Errorf("quartiles(%v) = %v, %v, median %v; want %v, %v, %v", c.v, q1, q3, median(c.v), c.q1, c.q3, c.med)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the program's
// workload and metric tables the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q", i, bj.Workloads[i], w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.better() || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
