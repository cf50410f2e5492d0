package main

import (
	"fmt"
	"time"

	"gtlb/internal/core"
	"gtlb/internal/des"
	"gtlb/internal/metrics"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// layers holds the per-layer profile every traced run measures, on the
// inputs of the workload that exercises each layer: the sim inputs for
// des, queueing, metrics, core and obs, the nash-tcp inputs for dist,
// game and noncoop, and the control stream for ctrl. The attribution
// tables multiply its per-operation costs by the traced pass's counts.
type layers struct {
	clock time.Duration // bias of one timed empty call

	// sim, per layer operation
	expNs, aliasNs, accNs, p2Ns float64
	arrivalsPerJob              float64

	// nash-tcp
	oracleNs, tcpHopNs float64

	// control
	ingestHoldNs, ingestReallocNs, checkpointNs, codecNs, memHopNs float64
}

// measureLayers measures every per-layer metric and records it on r.
func measureLayers(r *run) (*layers, error) {
	l := &layers{clock: clockCost()}
	in, err := newSimInputs(r.seed)
	if err != nil {
		return nil, err
	}
	if err := l.measureSim(r, in); err != nil {
		return nil, err
	}
	if err := l.measureDist(r); err != nil {
		return nil, err
	}
	if err := l.measureCtrl(r); err != nil {
		return nil, err
	}
	return l, nil
}

// simShares are the queueing and metrics rows of a sim job.
func (l *layers) simShares() []share {
	return []share{
		{"queueing", "RNG.Exp (inter-arrival, service)", l.expNs, 2 * l.arrivalsPerJob},
		{"queueing", "AliasSampler.Sample (routing)", l.aliasNs, l.arrivalsPerJob},
		{"metrics", "Accumulator.Add (total, computer, user)", l.accNs, 3},
		{"metrics", "Quantile.Add (P² p95)", l.p2Ns, 1},
	}
}

// measureSim profiles the layers under the sim workloads on call 0.
func (l *layers) measureSim(r *run, in simInputs) error {
	rng := queueing.NewRNG(splitmix(in.seed))
	mu := in.sys.Mu
	var sinkF float64
	var sinkI int
	l.expNs = perCall(1<<20, func(i int) { sinkF += rng.Exp(mu[i%len(mu)]) })
	alias, err := queueing.NewAliasSampler(in.route)
	if err != nil {
		return err
	}
	l.aliasNs = perCall(1<<20, func(int) { sinkI += alias.Sample(rng) })
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Exp(1 / in.analytic)
	}
	var acc metrics.Accumulator
	l.accNs = perCall(1<<20, func(i int) { acc.Add(xs[i&4095]) })
	q := metrics.MustQuantile(0.95)
	l.p2Ns = perCall(1<<20, func(i int) { q.Add(xs[i&4095]) })
	coopNs := perCall(2000, func(int) {
		if a, err := core.COOP(in.sys); err == nil {
			sinkF += a.Spare
		}
	})
	_ = sinkI

	// Exact counts: one untimed run of call 0 through a registry.
	reg := obs.NewRegistry()
	res, err := des.Run(in.config(0, reg))
	if err != nil {
		return err
	}
	jobs := float64(res.Jobs)
	var events uint64
	for _, c := range reg.Snapshot() {
		events += c.Value
	}
	l.arrivalsPerJob = float64(reg.Get(obs.DESArrival.Name())) / jobs

	// The observer numbers in one process, alternating the order of
	// no observer, the no-op observer and the binary tracer.
	const rounds = 9
	var times [3][]float64 // no observer, no-op observer, binary tracer
	flushes := newSpanLog()
	var traceBytes int64
	for k := 0; k < rounds; k++ {
		order := []int{0, 1, 2}
		if k%2 == 1 {
			order = []int{2, 1, 0}
		}
		for _, v := range order {
			start := time.Now()
			switch v {
			case 0:
				_, err = des.Run(in.config(0, nil))
			case 1:
				_, err = des.Run(in.config(0, obs.Discard))
			case 2:
				var c simCall
				c, err = runSimCall(in, 0, true, flushes, nil)
				traceBytes = c.bytes
			}
			d := float64(time.Since(start))
			if err != nil {
				return err
			}
			times[v] = append(times[v], d)
		}
	}
	base, noop, tracer := median(times[0]), median(times[1])/median(times[0]), median(times[2])/median(times[0])
	flushNs, flushN := flushes.total("obs", "Flush")

	// Per-event cost into a tracer fork, through a timing observer.
	observe := &counter{}
	if _, err := runSimCall(in, 0, true, nil, func(o obs.Observer) obs.Observer {
		return &timingObserver{inner: o, c: observe}
	}); err != nil {
		return err
	}
	observeNs := float64(observe.Total)/float64(observe.Calls) - float64(l.clock)

	self := base / jobs
	for _, s := range l.simShares() {
		self -= s.perOp * s.count
	}
	r.set("queueing.exp_ns", "ns", l.expNs)
	r.set("queueing.alias_ns", "ns", l.aliasNs)
	r.set("metrics.acc_add_ns", "ns", l.accNs)
	r.set("metrics.p2_add_ns", "ns", l.p2Ns)
	r.set("des.events_per_job", "count", float64(events)/jobs)
	r.set("des.self_ns_per_job", "ns", self)
	r.set("core.coop_us", "us", coopNs/1e3)
	r.set("obs.observe_ns", "ns", observeNs)
	r.set("obs.noop_slowdown", "ratio", noop)
	r.set("obs.tracer_slowdown", "ratio", tracer)
	r.set("obs.flush_ms", "ms", float64(flushNs)/float64(flushN)/1e6)
	r.set("obs.trace_bytes_per_event", "B", float64(traceBytes)/float64(events))
	fmt.Printf("observers on call 0 (%d jobs, %d events), median of %d alternating runs: none %.4g ms (base), no-op %.4fx, binary tracer %.4fx\n",
		res.Jobs, events, rounds, base/1e6, noop, tracer)
	return nil
}

// finishTrace records the tracing overhead, traced against untraced
// end-to-end time per unit of work, and writes the span log.
func (r *run) finishTrace(log *spanLog, instr, plain pass, unit string) error {
	ratio := instr.nsPer() / plain.nsPer()
	r.set("tracing.overhead", "ratio", ratio)
	fmt.Printf("tracing overhead: %.4f (traced %.4g ns/%s over untraced %.4g ns/%s, alternating calls)\n",
		ratio, instr.nsPer(), unit, plain.nsPer(), unit)
	path, err := log.write(runDir, r.name, r.seed)
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d spans, %d counters in %s\n", len(log.spans), len(log.order), path)
	return nil
}
