package main

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/spmv"
	"repro/internal/tcpmpi"
)

// world is one distributed runtime as the benchmark drives it: a single
// resident cluster on the chan transport, or the two halves of a tcpmpi
// loopback pair, which must be driven concurrently like two MPI processes.
// The second half runs on a resident helper goroutine, so driving a job
// allocates nothing of the benchmark's own.
type world struct {
	plan *core.Plan
	cls  []*core.Cluster
	ys   [][]float64 // per cluster; each holds the rows its local ranks own

	x      []float64 // input of the current Mul
	job    func(i int) error
	mulJob func(i int) error
	kick   chan struct{}
	done   chan error
}

func newWorld(plan *core.Plan, cls []*core.Cluster) *world {
	rows := plan.Part.Rows()
	w := &world{plan: plan, cls: cls}
	for range cls {
		w.ys = append(w.ys, make([]float64, rows))
	}
	w.mulJob = func(i int) error { return w.cls[i].Mul(w.ys[i], w.x, 1) }
	if len(cls) > 1 {
		w.kick, w.done = make(chan struct{}), make(chan error)
		go func() {
			for range w.kick {
				w.done <- w.job(1)
			}
		}()
	}
	return w
}

// dialChan brings up one resident cluster on the in-process transport.
func dialChan(plan *core.Plan, opts ...core.Option) (*world, error) {
	cl, err := core.NewCluster(plan, opts...)
	if err != nil {
		return nil, err
	}
	return newWorld(plan, []*core.Cluster{cl}), nil
}

// dialTCP brings up a two-half tcpmpi pair on a loopback rendezvous:
// ranks [0, size/2) coordinate, [size/2, size) join. Both halves share the
// plan, which is safe while nothing converts it.
func dialTCP(plan *core.Plan, opts ...core.Option) (*world, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close() // the joiner's dial retry covers the close-to-listen window

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	size := len(plan.Ranks)
	cls := make([]*core.Cluster, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, rr := range [2][2]int{{0, size / 2}, {size / 2, size}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &tcpmpi.Transport{Addr: addr, Coordinate: i == 0, RankLo: rr[0], RankHi: rr[1]}
			cls[i], errs[i] = core.NewCluster(plan, append([]core.Option{core.WithTransport(tr), core.WithDialContext(ctx)}, opts...)...)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, cl := range cls {
			if cl != nil {
				cl.Close()
			}
		}
		return nil, err
	}
	return newWorld(plan, cls), nil
}

// do runs job(i) for every cluster i concurrently and joins the errors.
func (w *world) do(job func(i int) error) error {
	if len(w.cls) == 1 {
		return job(0)
	}
	w.job = job
	w.kick <- struct{}{}
	err0 := job(0)
	return errors.Join(err0, <-w.done)
}

// mul computes y = A·x on every cluster.
func (w *world) mul(x []float64) error {
	w.x = x
	return w.do(w.mulJob)
}

// gather assembles the full result from the rows each cluster owns.
func (w *world) gather(y []float64) {
	for i, cl := range w.cls {
		for _, r := range cl.LocalRanks() {
			rows := w.plan.Ranks[r].Rows
			copy(y[rows.Lo:rows.Hi], w.ys[i][rows.Lo:rows.Hi])
		}
	}
}

func (w *world) setMode(m core.Mode) error {
	return w.do(func(i int) error { return w.cls[i].SetMode(m) })
}

func (w *world) close() {
	if w == nil {
		return
	}
	if w.kick != nil {
		close(w.kick)
	}
	for _, cl := range w.cls {
		cl.Close()
	}
}

// haloCounts are the elements and messages one multiplication receives,
// summed over ranks.
func haloCounts(plan *core.Plan) (elems, msgs int) {
	for _, rp := range plan.Ranks {
		elems += rp.HaloSize()
		msgs += len(rp.RecvFrom)
	}
	return elems, msgs
}

// probeTag is a tag no runtime exchange uses, so a probe's messages never
// match the resident halo channels.
const probeTag = 7

// probe runs body reps times on every rank inside one Cluster.Run per
// cluster, after a barrier per repetition, and returns for each repetition
// the slowest rank's time: the slowest part sets the time of the whole.
// The result is the median over repetitions, in µs.
func (w *world) probe(reps int, body func(wk *core.Worker) func() error) (float64, error) {
	times := make([][]float64, len(w.plan.Ranks))
	err := w.do(func(i int) error {
		return w.cls[i].Run(func(wk *core.Worker) error {
			step := body(wk)
			rank := wk.Comm.Rank()
			times[rank] = make([]float64, reps)
			for k := range reps {
				if err := wk.Comm.Barrier(); err != nil {
					return err
				}
				t0 := time.Now()
				if err := step(); err != nil {
					return err
				}
				times[rank][k] = float64(time.Since(t0).Nanoseconds())
			}
			return nil
		})
	})
	if err != nil {
		return 0, err
	}
	slowest := make([]float64, reps)
	for _, rt := range times {
		for k, v := range rt {
			slowest[k] = max(slowest[k], v)
		}
	}
	return median(slowest) / 1e3, nil
}

// haloStep is a halo-only exchange of the rank's plan schedule through
// Irecv/Isend/Waitall: the communication of one multiplication without
// its kernel.
func haloStep(wk *core.Worker) func() error {
	rp := wk.Plan
	recvBufs := make([][]float64, len(rp.RecvFrom))
	for i, rx := range rp.RecvFrom {
		recvBufs[i] = make([]float64, rx.Count)
	}
	sendBufs := make([][]float64, len(rp.SendTo))
	for i, tx := range rp.SendTo {
		sendBufs[i] = make([]float64, tx.Count)
	}
	reqs := make([]core.Request, 0, len(recvBufs)+len(sendBufs))
	return func() error {
		reqs = reqs[:0]
		for i, rx := range rp.RecvFrom {
			r, err := wk.Comm.Irecv(rx.Peer, probeTag, recvBufs[i])
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		for i, tx := range rp.SendTo {
			for k, idx := range tx.Indices {
				sendBufs[i][k] = wk.X[idx]
			}
			r, err := wk.Comm.Isend(tx.Peer, probeTag, sendBufs[i])
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		return wk.Comm.Waitall(reqs...)
	}
}

func allreduceStep(wk *core.Worker) func() error {
	return func() error {
		_, err := wk.Comm.AllreduceScalar(core.OpSum, 1)
		return err
	}
}

// The three kernel passes of a worker, re-run on its own team: the full
// matrix (vector mode), the local half and the compacted remote half
// (both overlap modes).
func fullPassStep(wk *core.Worker) func() error {
	var f matrix.Format = wk.Plan.A
	if wk.Plan.Format != nil {
		f = wk.Plan.Format
	}
	chunks := spmv.BalanceNnz(f.BlockNnzPrefix(), wk.Team.Size())
	return func() error {
		wk.Team.Run(func(t int) { f.MulVecBlocks(wk.Y, wk.X, chunks[t].Lo, chunks[t].Hi) })
		return nil
	}
}

func splitOf(wk *core.Worker) *spmv.FormatSplit {
	if wk.Plan.SplitFormat != nil {
		return wk.Plan.SplitFormat
	}
	return wk.Plan.Split.AsFormatSplit()
}

func localPassStep(wk *core.Worker) func() error {
	s := splitOf(wk)
	chunks := s.LocalChunks(wk.Team.Size())
	return func() error { s.MulVecLocal(wk.Team, chunks, wk.Y, wk.X); return nil }
}

func remotePassStep(wk *core.Worker) func() error {
	s := splitOf(wk)
	chunks := s.RemoteChunks(wk.Team.Size())
	return func() error { s.MulVecRemoteAdd(wk.Team, chunks, wk.Y, wk.X); return nil }
}

// passProbes fills the kernel-pass, halo and collective layer metrics of
// a world. haloMetric names the transport's halo metric.
func passProbes(r *report, w *world, reps int, haloMetric string) error {
	for _, p := range []struct {
		metric string
		step   func(*core.Worker) func() error
	}{
		{haloMetric, haloStep},
		{"spmv.full_pass_us", fullPassStep},
		{"spmv.local_pass_us", localPassStep},
		{"spmv.remote_pass_us", remotePassStep},
	} {
		v, err := w.probe(reps, p.step)
		if err != nil {
			return err
		}
		r.layer[p.metric] = v
		r.samples[p.metric] = reps
	}
	elems, msgs := haloCounts(w.plan)
	r.layer["core.halo_elems"] = float64(elems)
	r.layer["core.halo_msgs"] = float64(msgs)
	r.layer["core.plan_bytes"] = float64(w.plan.Bytes())
	return nil
}
