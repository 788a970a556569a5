package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/formats"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/spmv"
)

// inputs is how many distinct x vectors a run cycles through; each one's
// reference result is computed once.
const inputs = 4

// spmvBlock is how many multiplications one latency sample averages over,
// as the paper averages over a run of iterations. A single Mul's time on a
// tcpmpi pair is bimodal (a second mode at about twice the first, from
// late wake-ups), so its median jumps with the mix; a block's mean does
// not.
const spmvBlock = 32

// modeNames are the metric suffixes of core.Modes, in order.
var modeNames = [3]string{"vector", "naive", "task"}

// fillVec fills x from the run's seed; stream separates the vectors.
func fillVec(x []float64, seed int64, stream uint64) {
	rng := rand.New(rand.NewPCG(uint64(seed), stream))
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
}

// firstDiff returns the first index whose bits differ, or -1.
func firstDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkMul gates a multiplication result against the chan cluster's.
func checkMul(r *report, mode core.Mode, input int, got, want []float64) {
	if k := firstDiff(got, want); k >= 0 {
		r.gate("%s, input %d: row %d differs from the chan cluster", mode, input, k)
	}
}

// spmvWorkload returns the spmv-hmep-tcp workload of one kernel mode:
// HMeP small (50,400 rows, 617,680 nnz) in CRS on two ranks of one compute
// thread each, run as a tcpmpi loopback pair. One operation is one
// Cluster.Mul in that mode, so each mode's time has bounded metrics of its
// own; op_ms_p50 and op_ms_p90 are taken over blocks of spmvBlock
// multiplications, each block's mean time per multiplication.
func spmvWorkload(mode core.Mode) func(runConfig) (*report, error) {
	return func(cfg runConfig) (*report, error) { return runSpmv(cfg, mode) }
}

func runSpmv(cfg runConfig, mode core.Mode) (*report, error) {
	r := newReport()
	tr := tracerIf(cfg.trace)
	var a *matrix.CSR
	w, err := repeatSetup(r, cfg, tr, func(root *span) (*world, error) {
		var plan *core.Plan
		var w *world
		if err := timed(tr, "genmat.gen", root, func() error {
			src, err := expt.HolsteinSource(genmat.HMeP, expt.Small)
			if err == nil {
				a = matrix.Materialize(src)
			}
			return err
		}); err != nil {
			return nil, err
		}
		if err := timed(tr, "core.plan", root, func() (err error) {
			plan, err = core.BuildPlan(a, core.PartitionByNnz(a, 2), true)
			return err
		}); err != nil {
			return nil, err
		}
		err := timed(tr, "core.dial", root, func() (err error) {
			w, err = dialTCP(plan, core.WithThreads(1))
			return err
		})
		return w, err
	}, (*world).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r.e2e["heap_mb"] = heapMB()
	rows, nnz := a.NumRows, float64(a.Nnz())
	r.workingSet = w.plan.Bytes() + int64(16*rows)

	// The reference: a chan-transport cluster on the same plan, per mode
	// and input. The cross-transport contract is bit-identity. Every mode
	// is referenced because the traced pass probes all three.
	xs := make([][]float64, inputs)
	var want [3][inputs][]float64
	ref, err := dialChan(w.plan, core.WithThreads(1))
	if err != nil {
		return nil, err
	}
	for i := range xs {
		xs[i] = make([]float64, rows)
		fillVec(xs[i], cfg.seed, uint64(i))
	}
	for m, mode := range core.Modes {
		if err := ref.setMode(mode); err != nil {
			ref.close()
			return nil, err
		}
		for i := range xs {
			want[m][i] = make([]float64, rows)
			if err := ref.mul(xs[i]); err != nil {
				ref.close()
				return nil, err
			}
			ref.gather(want[m][i])
		}
	}
	ref.close()

	got := make([]float64, rows)
	// muls runs Cluster.Mul in mode m in blocks of spmvBlock, n blocks or,
	// for n = 0, for d, and checks every result. It returns the time of
	// each multiplication, the mean time per multiplication of each block
	// (a block with a failed multiplication is a miss), the completed
	// multiplications and the summed time of all of them. Only the Mul is
	// timed, not the gather and check.
	muls := func(m, n int, d time.Duration, tr *tracer) (each, blocks samples, ok int, busy time.Duration, err error) {
		if err := w.setMode(core.Modes[m]); err != nil {
			return nil, nil, 0, 0, err
		}
		name := "core.mul." + modeNames[m]
		t0 := time.Now()
		for b := 0; b == 0 || (n > 0 && b < n) || (n == 0 && time.Since(t0) < d); b++ {
			var block time.Duration
			failed := false
			for k := range spmvBlock {
				i := k % inputs
				s := tr.open(name, 0, tr.newTrace())
				t := time.Now()
				err := w.mul(xs[i])
				dt := time.Since(t)
				tr.end(s)
				block += dt
				r.attempted++
				if err != nil {
					r.failed++
					failed = true
					each.fail()
					continue
				}
				ok++
				each.add(dt)
				w.gather(got)
				checkMul(r, core.Modes[m], i, got, want[m][i])
			}
			busy += block
			if failed {
				blocks.fail()
			} else {
				blocks.add(block / spmvBlock)
			}
		}
		return each, blocks, ok, busy, nil
	}

	own := slices.Index(core.Modes, mode)
	if _, _, _, _, err := muls(own, 0, time.Duration(float64(cfg.seconds)*0.05), nil); err != nil { // warm-up
		return nil, err
	}
	r.attempted, r.failed = 0, 0
	measured := cfg.seconds
	if cfg.trace {
		measured /= 2
	}
	_, ops, ok, busy, err := muls(own, 0, measured, nil)
	if err != nil {
		return nil, err
	}
	r.opMetrics(ops, ok, busy)
	r.layer["bench.fail_frac"] = ratio(float64(r.failed), float64(r.attempted))
	if !cfg.trace {
		return r, nil
	}

	_, tops, _, _, err := muls(own, 0, measured, tr)
	if err != nil {
		return nil, err
	}
	r.layer["trace.overhead_frac"] = tops.quantile(0.5)/ops.quantile(0.5) - 1

	// Every mode on the same pair, so the overlap of the three can be
	// compared on each workload; this workload's own mode last, so the
	// cluster is left in it.
	const modeBlocks = 32
	var mulUs [3]float64
	for _, m := range []int{(own + 1) % 3, (own + 2) % 3, own} {
		probe, _, _, _, err := muls(m, modeBlocks, 0, nil)
		if err != nil {
			return nil, err
		}
		mulUs[m] = probe.us(0.5)
		r.layer["core.mul_us_p50_"+modeNames[m]] = mulUs[m]
		r.layer["core.mul_gflops_"+modeNames[m]] = 2 * nnz / (mulUs[m] * 1e3)
		r.samples["core.mul_us_p50_"+modeNames[m]] = len(probe)
		if core.Modes[m] == core.TaskMode {
			r.layer["core.mul_us_p99_task"] = probe.us(0.99)
			r.samples["core.mul_us_p99_task"] = len(probe)
		}
	}

	if err := passProbes(r, w, 200, "tcpmpi.halo_us"); err != nil {
		return nil, err
	}
	halo, full := r.layer["tcpmpi.halo_us"], r.layer["spmv.full_pass_us"]
	local, remote := r.layer["spmv.local_pass_us"], r.layer["spmv.remote_pass_us"]
	r.layer["core.overlap_frac_naive"] = ratio(local+halo+remote-mulUs[1], halo)
	r.layer["core.overlap_frac_task"] = ratio(local+halo+remote-mulUs[2], halo)
	r.layer["core.dispatch_us"] = mulUs[0] - (halo + full)
	// The blocking path of one multiplication: vector = halo then full
	// pass; naive = halo, local, remote in sequence; task = the longer of
	// halo and local pass, then the remote pass.
	path := [3]float64{halo + full, halo + local + remote, max(halo, local) + remote}
	r.layer["trace.residual_frac"] = 1 - path[own]/mulUs[own]

	const allocMuls = 200
	m0 := mallocs()
	for k := range allocMuls {
		if err := w.mul(xs[k%inputs]); err != nil {
			return nil, err
		}
	}
	r.layer["core.allocs_per_mul"] = float64(mallocs()-m0) / allocMuls

	if err := kernelBaselines(r, a, xs[0]); err != nil {
		return nil, err
	}
	setupLayers(r, tr.spans)
	r.spans = tr.spans
	return r, nil
}

// kernelBaselines measures the single-threaded whole-matrix kernels the
// distributed modes are judged against, the SELL-32-256 conversion, and
// the Eq. 1 byte count of one multiplication with κ = 0, which is
// computed, not measured.
func kernelBaselines(r *report, a *matrix.CSR, x []float64) error {
	y := make([]float64, a.NumRows)
	nnz := float64(a.Nnz())
	const reps = 15
	crs := make([]float64, reps)
	for k := range crs {
		t := time.Now()
		spmv.Serial(y, a, x)
		crs[k] = float64(time.Since(t).Nanoseconds())
	}
	t := time.Now()
	sell, err := formats.NewSELLCSigma(a, 32, 256)
	if err != nil {
		return fmt.Errorf("SELL conversion: %w", err)
	}
	r.layer["formats.convert_s"] = time.Since(t).Seconds()
	sellT := make([]float64, reps)
	for k := range sellT {
		t := time.Now()
		sell.MulVecBlocks(y, x, 0, sell.NumBlocks())
		sellT[k] = float64(time.Since(t).Nanoseconds())
	}
	r.layer["spmv.crs_serial_gflops"] = 2 * nnz / median(crs)
	r.layer["spmv.sell_serial_gflops"] = 2 * nnz / median(sellT)
	r.samples["spmv.crs_serial_gflops"] = reps
	r.samples["spmv.sell_serial_gflops"] = reps
	prefix := sell.BlockNnzPrefix()
	r.layer["formats.sell_padding_ratio"] = float64(prefix[len(prefix)-1]) / nnz
	bytes := 12*nnz + 24*float64(a.NumRows)
	r.layer["spmv.bytes_per_mul_computed"] = bytes
	r.layer["spmv.flops_per_byte_computed"] = 2 * nnz / bytes
	return nil
}
