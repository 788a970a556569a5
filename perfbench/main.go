// Command perfbench is the repository's benchmark: five workloads that
// drive the SpMV runtime through its public packages, check every output,
// and report end-to-end metrics (--trace 0) or a per-layer split timed from
// outside the program (--trace 1). Run it through run.sh from the
// repository root; BENCHMARK.json describes the workloads and metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out dir]
//	perfbench compare <result-dir-A> <result-dir-B>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong output (a bit mismatch,
// a wrong CG iteration count, a wrong simulated event count or crossover)
// prints correct=false and exits 2; a set-up error exits 1 without a
// result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// workload is one named set of inputs. run measures it for cfg.seconds.
// BENCHMARK.json says why each was chosen.
type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"spmv-hmep-tcp-vector", spmvWorkload(core.VectorNoOverlap)},
	{"spmv-hmep-tcp-naive", spmvWorkload(core.VectorNaiveOverlap)},
	{"spmv-hmep-tcp-task", spmvWorkload(core.TaskMode)},
	{"serve-band-mixed", runServe},
	{"sim-hmep-sweep", runSim},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	setupReps int           // set-up is repeated at least this often and its median reported,
	setupFor  time.Duration // and more often until this much time is spent
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	wrong             []string           // correctness-gate failures
	e2e               map[string]float64 // end-to-end metrics, untraced
	layer             map[string]float64 // per-layer metrics, traced pass only
	samples           map[string]int     // samples behind each percentile
	workingSet        int64              // bytes of matrix, plan and vectors
	spans             []span
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
}

// gate records a correctness failure.
func (r *report) gate(format string, args ...any) {
	if len(r.wrong) < 16 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// opMetrics fills the operation metrics from one pass's samples. busy is
// the time the operations took, per client: the sum of every operation's
// duration, failed ones included, divided by the number of clients that
// issued them concurrently. ops_per_s is therefore measured over the same
// intervals as op_ms_p50 and op_ms_p90, and the benchmark's own checking
// between operations is in neither.
func (r *report) opMetrics(ops samples, ok int, busy time.Duration) {
	pct := func(q float64) float64 {
		v := ops.ms(q)
		if math.IsInf(v, 1) { // more failures than the percentile's tail: the time spent is the latency bound
			v = busy.Seconds() * 1e3
		}
		return v
	}
	r.e2e["op_ms_p50"] = pct(0.5)
	r.e2e["op_ms_p90"] = pct(0.9)
	r.e2e["ops_per_s"] = float64(ok) / busy.Seconds()
	r.samples["op_ms_p50"] = len(ops)
	r.samples["op_ms_p90"] = len(ops)
}

// heapMB is the live heap after a forced collection: the resident matrix,
// plan and buffers once set-up is done. Live bytes (HeapAlloc) rather than
// in-use spans (HeapInuse), which move with the collector's page reuse.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// mallocs is the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// repeatSetup builds an instance several times, closing all but the last,
// and reports the median build time as setup_s: at least cfg.setupReps
// builds, and more (up to maxSetups) until cfg.setupFor has been spent, so
// a set-up of a few milliseconds is not one noisy sample. Each build is
// one trace rooted at a "setup" span, which build parents its layer spans
// on.
func repeatSetup[T any](r *report, cfg runConfig, tr *tracer, build func(root *span) (T, error), close func(T)) (T, error) {
	const maxSetups = 20
	var inst T
	var times []float64
	var spent time.Duration
	for i := 0; i < max(1, cfg.setupReps) || (spent < cfg.setupFor && i < maxSetups); i++ {
		if i > 0 {
			close(inst)
		}
		root := tr.open("setup", 0, tr.newTrace())
		t0 := time.Now()
		var err error
		inst, err = build(root)
		d := time.Since(t0)
		if err != nil {
			return inst, err
		}
		tr.end(root)
		spent += d
		times = append(times, d.Seconds())
	}
	r.e2e["setup_s"] = median(times)
	r.samples["setup_s"] = len(times)
	return inst, nil
}

// timed runs f inside a span.
func timed(tr *tracer, name string, parent *span, f func() error) error {
	s := tr.open(name, parent.id(), parent.trace())
	err := f()
	tr.end(s)
	return err
}

// setupLayers turns the set-up spans into per-layer medians.
func setupLayers(r *report, spans []span) {
	for name, metric := range map[string]string{
		"genmat.gen": "genmat.gen_s", "core.plan": "core.plan_s", "formats.convert": "formats.convert_s",
		"core.dial": "core.dial_s", "serve.register": "serve.register_s",
	} {
		if d := durByName(spans, name); len(d) > 0 {
			r.layer[metric] = d.quantile(0.5) / 1e9
		}
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultFile is what a run leaves in --out: the result line plus every
// measured metric, the host fingerprint, the samples behind each
// percentile and, for the traced pass, the spans.
type resultFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Result   result             `json:"result"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Samples  map[string]int     `json:"samples"`
	Explains map[string]string  `json:"explains,omitempty"` // per-layer metric → the end-to-end metric it should move
	Wrong    []string           `json:"wrong,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare <result-dir-A> <result-dir-B>")
			os.Exit(1)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the result file")
	flag.Parse()

	code, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one workload and prints its result line. It returns the
// exit code: 0 when every output was correct, 2 when a gate fired, 1 on
// an error that left no result.
func run(name string, seed int64, seconds time.Duration, trace bool, out string) (int, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return 1, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return 1, errors.New("--seconds must be positive")
	}
	rep, err := w.run(runConfig{seed: seed, seconds: seconds, trace: trace, setupReps: 3, setupFor: time.Second})
	if err != nil {
		return 1, fmt.Errorf("%s: %w", name, err)
	}
	rep.layer["bench.working_set_bytes"] = float64(rep.workingSet)
	res := buildResult(rep, trace)
	rf := resultFile{
		Workload: name, Seed: seed, Seconds: seconds.Seconds(), Trace: trace,
		Host: fingerprint(rep.workingSet), Result: res,
		EndToEnd: rep.e2e, Samples: rep.samples, Wrong: rep.wrong, Spans: rep.spans,
	}
	if trace {
		rf.PerLayer = rep.layer
		rf.Explains = map[string]string{}
		for _, d := range perLayer {
			rf.Explains[d.Name] = d.Explains
		}
	}
	if err := writeResultFile(out, rf); err != nil {
		return 1, err
	}
	for _, msg := range rep.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG:", msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 2, nil
	}
	return 0, nil
}

// buildResult selects the metrics of the pass: end-to-end untraced, or
// every per-layer metric for the traced pass.
func buildResult(rep *report, trace bool) result {
	res := result{Correct: len(rep.wrong) == 0, Attempted: max(1, rep.attempted), Failed: rep.failed, Metrics: map[string]metric{}}
	defs, vals := endToEnd, rep.e2e
	if trace {
		defs, vals = perLayer, rep.layer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

func writeResultFile(dir string, rf resultFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if rf.Trace {
		kind = "trace"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", rf.Workload, rf.Seed, kind))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
