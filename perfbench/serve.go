package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/genmat"
	"repro/internal/matrix"
	"repro/internal/serve"
)

const (
	serveMatrix   = "bench-band"
	serveTenants  = 2  // closed-loop clients, one connection and one tenant each
	serveSeeds    = 16 // distinct request inputs; each reference is computed once
	serveMulShare = 0.9
	serveIters    = 4
	serveSolveTol = 1e-8
	serveSolveMax = 500
)

// serveInstance is a server on a loopback listener and its clients.
type serveInstance struct {
	srv     *serve.Server
	hs      *http.Server
	clients []*serve.Client
	info    serve.MatrixInfo
}

func (s *serveInstance) close() {
	if s == nil {
		return
	}
	for _, c := range s.clients {
		c.HTTP.CloseIdleConnections()
	}
	s.hs.Close()
	s.srv.Close()
}

// served is one request's outcome as the client saw it.
type served struct {
	op      serve.Op
	latency time.Duration
	resp    *serve.Response // nil on failure
}

// serve-band-mixed: serve.Server.Handler on a loopback listener (2 ranks,
// 1 thread, task mode, other settings at their defaults) serving the
// random band matrix (n=4000, bandwidth 64, 8 per row, SPD) to two
// closed-loop tenants. One operation is one request, 90% mul (4
// iterations) and 10% solve, timed from bytes out to bytes back.
func runServe(cfg runConfig) (*report, error) {
	r := newReport()
	tr := tracerIf(cfg.trace)
	spec := serve.Spec{Kind: "random", N: 4000, Bandwidth: 64, PerRow: 8, Seed: uint64(cfg.seed), SPD: true}
	inst, err := repeatSetup(r, cfg, tr, func(root *span) (*serveInstance, error) {
		inst := &serveInstance{srv: serve.NewServer(serve.Config{Ranks: 2, Threads: 1, Mode: core.TaskMode})}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			inst.srv.Close()
			return nil, err
		}
		inst.hs = &http.Server{Handler: inst.srv.Handler()}
		go inst.hs.Serve(ln) // returns once close shuts the listener
		for range serveTenants {
			inst.clients = append(inst.clients, &serve.Client{
				Base: "http://" + ln.Addr().String(),
				HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			})
		}
		err = timed(tr, "serve.register", root, func() (err error) {
			inst.info, err = inst.clients[0].Register(serve.RegisterRequest{Name: serveMatrix, Spec: spec})
			return err
		})
		if err != nil {
			inst.close()
			return nil, err
		}
		return inst, nil
	}, (*serveInstance).close)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	r.e2e["heap_mb"] = heapMB()
	r.workingSet = inst.info.Bytes + int64(8*inst.info.Rows*(2+serveSeeds*2))
	r.layer["core.plan_bytes"] = float64(inst.info.Bytes)

	ver, err := serve.NewVerifier(spec, inst.info)
	if err != nil {
		return nil, err
	}
	defer ver.Close()
	seeds := make([]int64, serveSeeds)
	for k := range seeds {
		seeds[k] = cfg.seed*serveSeeds + int64(k)
		if _, err := ver.Expected(serve.OpMul, seeds[k], serveIters, 0, 0); err != nil {
			return nil, err
		}
		if _, err := ver.Expected(serve.OpSolve, seeds[k], 0, serveSolveTol, serveSolveMax); err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex // guards r.wrong against the tenant goroutines
	check := func(op serve.Op, seed int64, resp *serve.Response) {
		mu.Lock()
		defer mu.Unlock()
		checkServed(r, ver, op, seed, resp.Y)
	}
	// request sends one request of the mix. A transport error, a non-200,
	// a body that does not decode or a solve that did not converge is a
	// failure; a result that differs from the reference is wrong.
	request := func(c *serve.Client, tenant string, rng *rand.Rand, tr *tracer) served {
		seed := seeds[rng.IntN(serveSeeds)]
		req := serve.OpRequest{Tenant: tenant, Matrix: serveMatrix, Seed: seed}
		op := serve.OpSolve
		if rng.Float64() < serveMulShare {
			op, req.Iters = serve.OpMul, serveIters
		} else {
			req.Tol, req.MaxIter = serveSolveTol, serveSolveMax
		}
		root := tr.open("serve.request", 0, tr.newTrace())
		t := time.Now()
		var resp *serve.Response
		var err error
		if op == serve.OpMul {
			resp, err = c.Mul(req)
		} else {
			resp, err = c.Solve(req)
		}
		d := time.Since(t)
		if tr != nil {
			tr.end(root)
			if resp != nil {
				addServerSpans(tr, root, resp)
			}
		}
		if err != nil || resp == nil || (op == serve.OpSolve && !resp.Converged) {
			return served{op: op, latency: d}
		}
		check(op, seed, resp)
		return served{op: op, latency: d, resp: resp}
	}
	pass := func(d time.Duration, tr *tracer) (all []served) {
		t0 := time.Now()
		per := make([][]served, serveTenants)
		var wg sync.WaitGroup
		for g := range serveTenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(cfg.seed), uint64(1000+g)))
				tenant := fmt.Sprintf("tenant-%d", g)
				for k := 0; k == 0 || time.Since(t0) < d; k++ {
					per[g] = append(per[g], request(inst.clients[g], tenant, rng, tr))
				}
			}()
		}
		wg.Wait()
		for _, p := range per {
			all = append(all, p...)
		}
		return all
	}
	// account counts a pass's requests. busy is their summed latency per
	// tenant: the closed loop keeps one request per tenant in flight, so
	// this is the pass's length less the time the tenants spent checking.
	account := func(all []served) (ops samples, ok int, busy time.Duration) {
		for _, s := range all {
			r.attempted++
			busy += s.latency / serveTenants
			if s.resp == nil {
				r.failed++
				ops.fail()
				continue
			}
			ok++
			ops.add(s.latency)
		}
		return ops, ok, busy
	}

	pass(time.Duration(float64(cfg.seconds)*0.05), nil) // warm-up: spins up the pool's sessions
	measured := cfg.seconds
	if cfg.trace {
		measured /= 2
	}
	all := pass(measured, nil)
	ops, ok, busy := account(all)
	r.opMetrics(ops, ok, busy)
	r.layer["bench.fail_frac"] = ratio(float64(r.failed), float64(r.attempted))
	if !cfg.trace {
		return r, nil
	}

	tall := pass(measured, tr)
	tops, _, _ := account(tall)
	r.layer["trace.overhead_frac"] = tops.quantile(0.5)/ops.quantile(0.5) - 1
	self := selfTimes(tr.spans)
	overhead := selfByName(tr.spans, self, "serve.request")
	r.layer["serve.http.overhead_us_p50"] = overhead.us(0.5)
	r.samples["serve.http.overhead_us_p50"] = len(overhead)

	// The server's own split, over both passes.
	var queue, exec, execMul, execSolve samples
	var attempts float64
	var lastMul *serve.Response
	for _, s := range slices.Concat(all, tall) {
		if s.resp == nil {
			continue
		}
		queue.add(time.Duration(s.resp.QueueNs))
		exec.add(time.Duration(s.resp.ExecNs))
		attempts += float64(s.resp.Attempts)
		if s.op == serve.OpMul {
			execMul.add(time.Duration(s.resp.ExecNs))
			lastMul = s.resp
		} else {
			execSolve.add(time.Duration(s.resp.ExecNs))
		}
	}
	r.layer["serve.queue_us_p50"] = queue.us(0.5)
	r.layer["serve.queue_us_p90"] = queue.us(0.9)
	r.layer["serve.exec_mul_us_p50"] = execMul.us(0.5)
	r.layer["serve.exec_solve_us_p50"] = execSolve.us(0.5)
	r.layer["serve.attempts_mean"] = ratio(attempts, float64(len(queue)))
	r.samples["serve.queue_us_p50"] = len(queue)
	r.samples["serve.queue_us_p90"] = len(queue)
	r.samples["serve.exec_mul_us_p50"] = len(execMul)
	r.samples["serve.exec_solve_us_p50"] = len(execSolve)

	st := inst.srv.Stats()
	r.layer["serve.batch_size_mean"] = ratio(float64(st.BatchedRequests), float64(st.Batches))
	r.layer["serve.rejected"] = float64(st.Rejected)
	r.layer["serve.shed"] = float64(st.Shed)
	r.layer["serve.retried"] = float64(st.Retried)

	if lastMul != nil {
		if err := codecProbes(r, lastMul); err != nil {
			return nil, err
		}
	}
	path := r.layer["serve.http.encode_req_us"] + r.layer["serve.http.decode_req_us"] +
		queue.us(0.5) + exec.us(0.5) + r.layer["serve.http.encode_resp_us"] + r.layer["serve.http.decode_resp_us"]
	r.layer["trace.residual_frac"] = 1 - path/ops.us(0.5)

	// In-process Server.Do on the same mix: the request without HTTP.
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 2000))
	var do samples
	for range 200 {
		seed := seeds[rng.IntN(serveSeeds)]
		req := &serve.Request{Tenant: "in-process", Matrix: serveMatrix, Op: serve.OpSolve, Seed: seed,
			Tol: serveSolveTol, MaxIter: serveSolveMax}
		if rng.Float64() < serveMulShare {
			req.Op, req.Iters, req.Tol, req.MaxIter = serve.OpMul, serveIters, 0, 0
		}
		t := time.Now()
		resp, err := inst.srv.Do(req)
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		do.add(time.Since(t))
		check(req.Op, seed, resp)
	}
	r.layer["serve.do_us_p50"] = do.us(0.5)
	r.samples["serve.do_us_p50"] = len(do)

	const allocReqs = 200
	arng := rand.New(rand.NewPCG(uint64(cfg.seed), 3000))
	m0 := mallocs()
	for range allocReqs {
		request(inst.clients[0], "tenant-0", arng, nil)
	}
	r.layer["serve.allocs_per_req"] = float64(mallocs()-m0) / allocReqs

	src, err := genmat.NewRandomBand(genmat.RandomBandConfig{N: spec.N, Bandwidth: spec.Bandwidth,
		PerRow: spec.PerRow, Seed: spec.Seed, Symmetric: true, SPD: true})
	if err != nil {
		return nil, err
	}
	a := matrix.Materialize(src)
	x := make([]float64, a.NumRows)
	serve.FillVector(x, seeds[0])
	if err := kernelBaselines(r, a, x); err != nil {
		return nil, err
	}
	if err := solverProbes(r, a, cfg.seed); err != nil {
		return nil, err
	}
	setupLayers(r, tr.spans)
	r.spans = tr.spans
	return r, nil
}

// checkServed gates a served result bit for bit against the verifier's
// reference cluster.
func checkServed(r *report, ver *serve.Verifier, op serve.Op, seed int64, y []float64) {
	var err error
	if op == serve.OpMul {
		err = ver.Check(op, seed, serveIters, 0, 0, y)
	} else {
		err = ver.Check(op, seed, 0, serveSolveTol, serveSolveMax, y)
	}
	if err != nil {
		r.gate("%v seed %d: %v", op, seed, err)
	}
}

// addServerSpans places the server's reported queue and execution times
// as children of the request span. The server reports durations, not
// instants, so they are centred in the request; only their lengths enter
// the self-time arithmetic.
func addServerSpans(tr *tracer, root *span, resp *serve.Response) {
	q, e := resp.QueueNs, resp.ExecNs
	slack := max(0, root.dur()-q-e)
	start := root.Start + slack/2
	tr.add(span{Parent: root.ID, Trace: root.Trace, Name: "serve.queue", Start: start, End: start + q})
	tr.add(span{Parent: root.ID, Trace: root.Trace, Name: "serve.exec", Start: start + q, End: start + q + e})
}

// codecProbes time encoding/json on the workload's own request and
// response values: the codec share of a served multiplication.
func codecProbes(r *report, resp *serve.Response) error {
	req := serve.OpRequest{Tenant: "tenant-0", Matrix: serveMatrix, Seed: 1, Iters: serveIters}
	reqBytes, err := json.Marshal(req)
	if err != nil {
		return err
	}
	respBytes, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	const reps = 200
	for _, p := range []struct {
		metric string
		f      func() error
	}{
		{"serve.http.encode_req_us", func() error { _, err := json.Marshal(req); return err }},
		{"serve.http.decode_req_us", func() error { var v serve.OpRequest; return json.Unmarshal(reqBytes, &v) }},
		{"serve.http.encode_resp_us", func() error { _, err := json.Marshal(resp); return err }},
		{"serve.http.decode_resp_us", func() error { var v serve.Response; return json.Unmarshal(respBytes, &v) }},
	} {
		var t samples
		for range reps {
			t0 := time.Now()
			if err := p.f(); err != nil {
				return err
			}
			t.add(time.Since(t0))
		}
		r.layer[p.metric] = t.us(0.5)
		r.samples[p.metric] = reps
	}
	r.layer["serve.http.bytes_per_req"] = float64(len(reqBytes) + len(respBytes))
	return nil
}
