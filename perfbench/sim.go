package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"gtlb/internal/core"
	"gtlb/internal/des"
	"gtlb/internal/metrics"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// The sim workloads simulate the Table 3.1 system scaled ×1000 (16
// computers, μ = 13…130 jobs/s) at 70% utilization, routed by the COOP
// allocation. One timed call is one des.Run of simReps replications on
// one worker; call k draws its streams from a seed derived from the
// workload seed and k.
const (
	simUtil    = 0.7
	simReps    = 4
	simHorizon = 200.0 // virtual seconds per replication
	simWarmup  = 20.0  // the slowest-relaxing station (ρ≈0.9) settles in ~3 s
	// simMaxZ bounds the pooled E[T] estimate's distance from the
	// analytic COOP response time, in standard errors.
	simMaxZ = 5.0
)

type simInputs struct {
	seed     uint64
	sys      core.System
	alloc    core.Allocation
	route    []float64
	analytic float64 // COOP's M/M/1 response time 1/d
}

func table31x1000() []float64 {
	var mu []float64
	for _, c := range []struct {
		rel float64
		n   int
	}{{1, 6}, {2, 5}, {5, 3}, {10, 2}} {
		for i := 0; i < c.n; i++ {
			mu = append(mu, 13*c.rel)
		}
	}
	return mu
}

func newSimInputs(seed uint64) (simInputs, error) {
	mu := table31x1000()
	total := 0.0
	for _, m := range mu {
		total += m
	}
	sys, err := core.NewSystem(mu, simUtil*total)
	if err != nil {
		return simInputs{}, err
	}
	alloc, err := core.COOP(sys)
	if err != nil {
		return simInputs{}, err
	}
	route := make([]float64, len(mu))
	for i, l := range alloc.Lambda {
		route[i] = l / sys.Phi
	}
	return simInputs{seed: seed, sys: sys, alloc: alloc, route: route, analytic: alloc.ResponseTime()}, nil
}

// config is the des.Config of timed call k.
func (in simInputs) config(k int, o obs.Observer) des.Config {
	return des.Config{
		Mu:           in.sys.Mu,
		InterArrival: queueing.NewExponential(in.sys.Phi),
		Routing:      [][]float64{in.route},
		Horizon:      simHorizon,
		Warmup:       simWarmup,
		Seed:         splitmix(in.seed*1_000_003 + uint64(k)),
		Replications: simReps,
		Workers:      1,
		Observer:     o,
	}
}

// setupSim builds the inputs and lets lazy set-up finish with a short
// run, setupReps times. The run is long enough (~9,000 jobs) for the
// set-up to be timed steadily (README.md).
func setupSim(r *run) (simInputs, error) {
	var in simInputs
	err := r.timeSetup(func() error {
		var err error
		if in, err = newSimInputs(r.seed); err != nil {
			return err
		}
		cfg := in.config(-1, nil)
		cfg.Horizon, cfg.Warmup, cfg.Replications = 20, 0, 1
		_, err = des.Run(cfg)
		return err
	})
	return in, err
}

// byteCounter is a discarding writer that counts what it is given.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n += int64(len(p))
	return len(p), nil
}

// simCall is one timed call's output.
type simCall struct {
	res   des.Result
	bytes int64 // trace bytes, traced calls only
}

// runSimCall runs call k, traced through a binary tracer (flushed
// inside the call) when traced is set; wrap, if non-nil, decorates the
// tracer. With a span log it records a span around des.Run and one
// around the flush.
func runSimCall(in simInputs, k int, traced bool, log *spanLog, wrap func(obs.Observer) obs.Observer) (simCall, error) {
	span := func(layer, name string, fn func() error) error {
		if log == nil {
			return fn()
		}
		return log.timeSpan(layer, name, fn)
	}
	var c simCall
	var o obs.Observer
	var w byteCounter
	var tr *obs.BinaryTracer
	if traced {
		tr = obs.NewBinaryTracer(&w)
		o = tr
		if wrap != nil {
			o = wrap(tr)
		}
	}
	err := span("des", "Run", func() error {
		var err error
		c.res, err = des.Run(in.config(k, o))
		return err
	})
	if err != nil || !traced {
		return c, err
	}
	if err := span("obs", "Flush", tr.Flush); err != nil {
		return simCall{}, fmt.Errorf("trace flush: %w", err)
	}
	c.bytes = w.n
	return c, tr.Err()
}

// simLoop makes timed calls until the budget is spent.
func simLoop(r *run, in simInputs, traced bool) []simCall {
	var out []simCall
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < r.budget; k++ {
		c, err := simTimed(r, in, k, traced, nil, nil)
		if err != nil {
			break
		}
		out = append(out, c)
	}
	return out
}

// simTimed makes call k a timed call.
func simTimed(r *run, in simInputs, k int, traced bool, log *spanLog, wrap func(obs.Observer) obs.Observer) (simCall, error) {
	var c simCall
	err := r.call(func() (float64, error) {
		var err error
		c, err = runSimCall(in, k, traced, log, wrap)
		return float64(c.res.Jobs), err
	})
	return c, err
}

// checkSim checks the calls against the analytic response time and
// against a rerun of call 0: untraced, which must give the identical
// result, and, for traced calls, traced, which must give the identical
// trace byte count.
func checkSim(r *run, in simInputs, calls []simCall, traced bool) {
	if len(calls) == 0 {
		return
	}
	means := make([]float64, len(calls))
	for i, c := range calls {
		means[i] = c.res.Overall.Mean
	}
	s := metrics.Summarize(means)
	se := s.StdErr
	if len(calls) == 1 {
		se = calls[0].res.Overall.StdErr
	}
	z := (s.Mean - in.analytic) / se
	fmt.Printf("check: E[T] = %.6g s over %d calls, analytic COOP %.6g s, z = %.2f (bound %g)\n",
		s.Mean, len(calls), in.analytic, z, simMaxZ)
	if !(math.Abs(z) <= simMaxZ) {
		r.fail("E[T] %.6g is %.2f standard errors from the analytic %.6g", s.Mean, z, in.analytic)
	}
	again, err := runSimCall(in, 0, false, nil, nil)
	if err != nil {
		r.fail("rerun of call 0: %v", err)
		return
	}
	if !reflect.DeepEqual(again.res, calls[0].res) {
		r.fail("untraced rerun of call 0 differs: %d jobs vs %d", again.res.Jobs, calls[0].res.Jobs)
	}
	if !traced {
		return
	}
	twice, err := runSimCall(in, 0, true, nil, nil)
	if err != nil {
		r.fail("traced rerun of call 0: %v", err)
		return
	}
	if twice.bytes != calls[0].bytes {
		r.fail("trace of call 0 is %d bytes on rerun, %d before", twice.bytes, calls[0].bytes)
	}
	fmt.Printf("check: call 0 gives %d jobs untraced and traced, %d trace bytes twice\n", again.res.Jobs, twice.bytes)
}

func runSim(r *run) error       { return simPlain(r, false) }
func runSimTraced(r *run) error { return simPlain(r, true) }

func simPlain(r *run, traced bool) error {
	in, err := setupSim(r)
	if err != nil {
		return err
	}
	calls := simLoop(r, in, traced)
	checkSim(r, in, calls, traced)
	r.endToEnd()
	fmt.Printf("jobs_per_s %.6g (simulated completions per host second, fastest call)\n", r.best().opsPerS)
	return nil
}

// timingObserver times the events it forwards to the observer it
// wraps, forking with it so each replication's tracer fork is timed.
// It times one event in observeSample and scales the sum, so its clock
// reads do not swamp the cost they measure; c.Calls counts every event.
// Replications run on one worker, so one counter serves all forks.
type timingObserver struct {
	inner obs.Observer
	c     *counter
}

const observeSample = 16

func (t *timingObserver) Observe(e obs.Event) {
	t.c.Calls++
	if t.c.Calls%observeSample != 0 {
		t.inner.Observe(e)
		return
	}
	start := time.Now()
	t.inner.Observe(e)
	t.c.Total += observeSample * time.Since(start)
}

func (t *timingObserver) ForkRep(rep int) obs.Observer {
	return &timingObserver{inner: obs.ForkRep(t.inner, rep), c: t.c}
}

func traceSim(r *run) error       { return simTrace(r, false) }
func traceSimTraced(r *run) error { return simTrace(r, true) }

// simTrace alternates untraced calls with traced ones: a span around
// every des.Run and, for sim-traced, a sampled counter around the
// events into the tracer forks and a span around every Flush.
func simTrace(r *run, traced bool) error {
	in, err := setupSim(r)
	if err != nil {
		return err
	}
	log := newSpanLog()
	observe := log.counter("obs", "Observe")
	var wrap func(obs.Observer) obs.Observer
	if traced {
		wrap = func(o obs.Observer) obs.Observer { return &timingObserver{inner: o, c: observe} }
	}
	var calls []simCall
	plain, instr := r.alternate(func(k int) error {
		c, err := simTimed(r, in, k, traced, nil, nil)
		if err == nil {
			calls = append(calls, c)
		}
		return err
	}, func(k int) error {
		_, err := simTimed(r, in, k, traced, log, wrap)
		return err
	})
	checkSim(r, in, calls, traced)
	runNs, _ := log.total("des", "Run")
	flushNs, _ := log.total("obs", "Flush")

	l, err := measureLayers(r)
	if err != nil {
		return err
	}
	jobs := instr.work
	perJob := l.simShares()
	if traced {
		perEvent := float64(observe.Total)/float64(observe.Calls) - float64(l.clock)
		perJob = append(perJob,
			share{"obs", "Observe into tracer fork", perEvent, float64(observe.Calls) / jobs},
			share{"obs", "BinaryTracer.Flush", float64(flushNs) / jobs, 1},
			// The sampled per-event counters slow the event loop by more
			// than their clock reads; the paired difference measures it.
			share{"perfbench", "per-event counters (traced - untraced)", instr.nsPer() - plain.nsPer(), 1})
	}
	self := float64(runNs+flushNs) / jobs
	for _, s := range perJob {
		self -= s.perOp * s.count
	}
	perJob = append(perJob, share{"des", "self: heap, arena, event loop", self, 1})
	attribution(r.name, "job", instr.nsPer(), perJob)
	return r.finishTrace(log, instr, plain, "job")
}
