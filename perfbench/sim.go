package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/genmat"
	"repro/internal/machine"
	"repro/internal/simnet"
)

// The planner's answer on HMeP medium, Westmere EP, one process per
// locality domain, CRS: a deterministic simulation, so the event count and
// the crossover are exact references.
var (
	simRanks     = []int{64, 256, 1024}
	simEvents    = int64(2987538)
	simCrossover = simnet.Crossover{Ranks: 256, From: core.TaskMode.String(), To: core.VectorNaiveOverlap.String()}
)

// sim-hmep-sweep: the capacity planner through the public simnet.Sweep and
// FindCrossover. One operation is a sweep of ranks {64, 256, 1024} × the
// three modes. The simulation takes no random input, so the seed only
// labels the run.
func runSim(cfg runConfig) (*report, error) {
	r := newReport()
	tr := tracerIf(cfg.trace)
	wls, err := repeatSetup(r, cfg, tr, func(root *span) (map[int]*simnet.Workload, error) {
		var src *genmat.Holstein
		if err := timed(tr, "genmat.gen", root, func() (err error) {
			src, err = expt.HolsteinSource(genmat.HMeP, expt.Medium)
			return err
		}); err != nil {
			return nil, err
		}
		wls := make(map[int]*simnet.Workload, len(simRanks))
		var bytes int64
		err := timed(tr, "core.plan", root, func() error {
			for _, ranks := range simRanks {
				plan, err := core.BuildPlan(src, core.PartitionByNnz(src, ranks), false)
				if err != nil {
					return err
				}
				bytes += plan.Bytes()
				wls[ranks] = simnet.WorkloadFromPlan(plan, "HMeP", expt.PaperKappa("HMeP"))
			}
			return nil
		})
		r.layer["core.plan_bytes"] = float64(bytes)
		return wls, err
	}, func(map[int]*simnet.Workload) {})
	if err != nil {
		return nil, err
	}
	r.e2e["heap_mb"] = heapMB()
	r.workingSet = int64(r.layer["core.plan_bytes"])

	var lastEvents int64
	var lastX simnet.Crossover
	workload := func(ranks int) (*simnet.Workload, error) { return wls[ranks], nil }
	sweepCfg := func(ranks []int) simnet.SweepConfig {
		return simnet.SweepConfig{Cluster: machine.WestmereCluster(), Layout: simnet.ProcPerLD, RankCounts: ranks}
	}
	// sweep runs the whole sweep, one call per rank count under a root
	// span (simnet.Sweep visits rank counts one after another, so this is
	// the same work as one call over all of them), and checks the
	// planner's answer.
	sweep := func(tr *tracer) (time.Duration, bool) {
		root := tr.open("simnet.sweep", 0, tr.newTrace())
		t := time.Now()
		var points []simnet.SweepPoint
		var err error
		for _, ranks := range simRanks {
			var pts []simnet.SweepPoint
			err = timed(tr, fmt.Sprintf("simnet.sweep.%d", ranks), root, func() (err error) {
				pts, err = simnet.Sweep(sweepCfg([]int{ranks}), workload)
				return err
			})
			points = append(points, pts...)
			if err != nil {
				break
			}
		}
		d := time.Since(t)
		tr.end(root)
		r.attempted++
		if err != nil {
			r.failed++
			return d, false
		}
		lastEvents, lastX = checkSweep(r, points)
		return d, true
	}
	pass := func(d time.Duration, tr *tracer) (ops samples, ok int, busy time.Duration) {
		t0 := time.Now()
		for k := 0; k == 0 || time.Since(t0) < d; k++ {
			dt, good := sweep(tr)
			busy += dt
			if !good {
				ops.fail()
				continue
			}
			ok++
			ops.add(dt)
		}
		return ops, ok, busy
	}

	// Warm-up: one small point, so the measured sweeps start warm.
	if _, err := simnet.Sweep(simnet.SweepConfig{Cluster: machine.WestmereCluster(), Layout: simnet.ProcPerLD,
		RankCounts: simRanks[:1], Modes: []core.Mode{core.VectorNoOverlap}}, workload); err != nil {
		return nil, err
	}
	measured := cfg.seconds
	if cfg.trace {
		measured /= 2
	}
	ops, ok, busy := pass(measured, nil)
	r.opMetrics(ops, ok, busy)
	r.layer["bench.fail_frac"] = ratio(float64(r.failed), float64(r.attempted))
	if !cfg.trace {
		return r, nil
	}

	tops, _, _ := pass(measured, tr)
	r.layer["trace.overhead_frac"] = tops.quantile(0.5)/ops.quantile(0.5) - 1
	r.layer["simnet.events"] = float64(lastEvents)
	r.layer["simnet.events_per_s"] = float64(lastEvents) / (ops.quantile(0.5) / 1e9)
	for _, ranks := range simRanks {
		d := durByName(tr.spans, fmt.Sprintf("simnet.sweep.%d", ranks))
		metric := fmt.Sprintf("simnet.point_s_%d", ranks)
		r.layer[metric] = d.quantile(0.5) / 1e9
		r.samples[metric] = len(d)
	}
	r.layer["simnet.crossover_ranks"] = float64(lastX.Ranks)
	self := selfTimes(tr.spans)
	rootSelf, rootDur := selfByName(tr.spans, self, "simnet.sweep"), durByName(tr.spans, "simnet.sweep")
	r.layer["trace.residual_frac"] = ratio(rootSelf.quantile(0.5), rootDur.quantile(0.5))
	setupLayers(r, tr.spans)
	r.spans = tr.spans
	return r, nil
}

// checkSweep gates the planner's answer: the exact event count and
// crossover of the reference.
func checkSweep(r *report, points []simnet.SweepPoint) (int64, simnet.Crossover) {
	var events int64
	for _, p := range points {
		events += p.Events
	}
	if events != simEvents {
		r.gate("sweep took %d events, the reference takes %d", events, simEvents)
	}
	x, ok := simnet.FindCrossover(points)
	if !ok || x != simCrossover {
		r.gate("crossover %+v (found %v), the reference is %+v", x, ok, simCrossover)
	}
	return events, x
}
