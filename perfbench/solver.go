package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/solver"
)

const (
	cgTol     = 1e-8
	cgMaxIter = 2000
)

// solverProbes measures the layers under the served solves of
// serve-band-mixed on a cluster of the server's geometry (2 ranks, 1
// thread, task mode, chan transport): DistCG per iteration, one task-mode
// multiplication, the halo exchange, the kernel passes and the allreduce.
// Every solve is gated: the serial solver's iteration count for the same
// right-hand side, and a solution bit-identical to the first solve's.
func solverProbes(r *report, a *matrix.CSR, seed int64) error {
	plan, err := core.BuildPlan(a, core.PartitionByNnz(a, 2), true)
	if err != nil {
		return err
	}
	w, err := dialChan(plan, core.WithThreads(1), core.WithMode(core.TaskMode))
	if err != nil {
		return err
	}
	defer w.close()
	cl := w.cls[0]
	rows := a.NumRows

	if err := passProbes(r, w, 200, "chanmpi.halo_us"); err != nil {
		return err
	}
	allreduce, err := w.probe(500, allreduceStep)
	if err != nil {
		return err
	}
	r.layer["chanmpi.allreduce_us"] = allreduce
	r.samples["chanmpi.allreduce_us"] = 500

	b := make([]float64, rows)
	fillVec(b, seed, 0)
	const muls = 200
	var mulT samples
	y := make([]float64, rows)
	m0 := mallocs()
	for range muls {
		t := time.Now()
		if err := cl.Mul(y, b, 1); err != nil {
			return err
		}
		mulT.add(time.Since(t))
	}
	r.layer["core.allocs_per_mul"] = float64(mallocs()-m0) / muls
	mulTask := mulT.us(0.5)
	r.layer["core.mul_us_p50_task"] = mulTask
	r.samples["core.mul_us_p50_task"] = muls

	ref, err := solver.CG(solver.CSROperator{A: a}, b, make([]float64, rows), cgTol, cgMaxIter)
	if err != nil {
		return err
	}
	const solves = 20
	var first []float64
	var solveT samples
	x := make([]float64, rows)
	m0 = mallocs()
	for range solves {
		clear(x)
		t := time.Now()
		res, err := solver.DistCG(cl, b, x, cgTol, cgMaxIter)
		solveT.add(time.Since(t))
		if err != nil {
			return err
		}
		if first == nil {
			first = append([]float64(nil), x...)
		}
		checkSolve(r, 0, res.Iterations, ref.Iterations, x, first)
	}
	r.layer["solver.allocs_per_solve"] = float64(mallocs()-m0) / solves

	iters := float64(ref.Iterations)
	iterUs := solveT.us(0.5) / iters
	r.layer["solver.iters"] = iters
	r.layer["solver.iter_us"] = iterUs
	r.samples["solver.iter_us"] = solves
	// An iteration blocks on one multiplication and two allreduces; the
	// rest is the solver's own vector work.
	r.layer["solver.self_us_per_iter"] = iterUs - mulTask - 2*allreduce
	return nil
}

// checkSolve gates a solve: the reference's iteration count, and the
// solution bit-identical to the first solve of the same right-hand side.
func checkSolve(r *report, rhs, iters, refIters int, x, first []float64) {
	if iters != refIters {
		r.gate("rhs %d: %d CG iterations, the reference takes %d", rhs, iters, refIters)
	}
	if k := firstDiff(x, first); k >= 0 {
		r.gate("rhs %d: row %d of the solution differs from the first solve", rhs, k)
	}
}
