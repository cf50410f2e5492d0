package gtlb

import (
	"io"

	"gtlb/internal/dist"
	"gtlb/internal/obs"
)

// This file is the package's functional-options surface. Every run
// entry point (Simulate, SimulateDynamic, RunNashRing, RunLBM, COOP)
// takes a trailing ...Option, so cross-cutting concerns — observation,
// tracing, fault injection, solver tuning — compose instead of forking
// new Run/RunWith/RunFrom variants per concern.

// Observer receives structured events from the simulator, the solvers
// and the distributed protocols; see the obs package for the event
// vocabulary. Pass one with WithObserver.
type Observer = obs.Observer

// Event is one observed occurrence (kind, virtual timestamp, operands).
type Event = obs.Event

// EventKind identifies what an Event reports.
type EventKind = obs.Kind

// Registry is a metrics observer: it folds events into named counters,
// gauges and mergeable latency histograms, and renders them with
// String(). The chaos.*, nash.* and lbm.* counter keys are the
// historical fault-counter names, unchanged.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Sink is a format-agnostic trace destination: an Observer that
// buffers a run's events and writes them in deterministic order when
// flushed. The trace options construct against this interface, so
// callers pick a format — JSONL (NewTracer) or the compact binary
// encoding (NewBinaryTracer) — without the rest of the API caring
// which. Run entry points flush WithTrace/WithBinaryTrace sinks
// automatically before returning.
type Sink = obs.Sink

// Tracer is the JSONL Sink: a structured event recorder, one JSON line
// per event; for a fixed seed its flushed output is byte-identical at
// any simulator worker count.
type Tracer = obs.Tracer

// NewTracer returns a tracer writing JSON Lines to w when flushed — the
// JSONL-format Sink constructor (use NewBinaryTracer for the compact
// binary format). Run entry points flush tracers passed via
// WithObserver only if the caller does so; prefer WithTrace, which
// flushes automatically.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// BinaryTracer is the compact binary Sink: the same determinism
// contract as the JSONL Tracer at a fraction of the cost — varint-delta
// virtual timestamps, interned event-name/label tables and pooled
// buffer pages. Decode with DecodeTrace or `lbtrace -decode`.
type BinaryTracer = obs.BinaryTracer

// NewBinaryTracer returns a Sink recording events in the compact
// binary trace format, written to w when flushed. Prefer
// WithBinaryTrace, which flushes automatically.
func NewBinaryTracer(w io.Writer) *BinaryTracer { return obs.NewBinaryTracer(w) }

// DecodeTrace converts a binary event trace (the WithBinaryTrace /
// NewBinaryTracer format) read from r into JSONL on w, byte-for-byte
// identical to what the JSONL tracer would have produced for the same
// run — so every tool built on the JSONL format consumes binary traces
// through this one hop. The `lbtrace -decode` command wraps it.
func DecodeTrace(r io.Reader, w io.Writer) error { return obs.DecodeTrace(r, w) }

// Option configures one run of a gtlb entry point.
type Option func(*runOptions)

// runOptions accumulates the applied options.
type runOptions struct {
	observers []obs.Observer
	sinks     []obs.Sink
	plan      *FaultPlan
	ring      NashRingOptions
	shard     ShardOptions
	lbm       LBMOptions
	eps       float64
	maxIter   int
	resume    *Profile
}

// WithObserver attaches an observer to the run; repeated uses fan out.
// The entry points thread it through every layer they drive (the DES
// engine, the solvers, the protocol nodes, the chaos transport).
func WithObserver(o Observer) Option {
	return func(ro *runOptions) { ro.observers = append(ro.observers, o) }
}

// TraceFormat selects the wire encoding of a recorded event trace.
type TraceFormat int

const (
	// TraceJSONL is the human-readable default: one JSON object per
	// line, the format the goldens and downstream tools consume.
	TraceJSONL TraceFormat = iota
	// TraceBinary is the compact production-rate encoding
	// (varint-delta timestamps, interned names, pooled pages); convert
	// to JSONL with DecodeTrace or `lbtrace -decode`.
	TraceBinary
)

// TraceOption refines a WithTrace recording (today: the format).
type TraceOption func(*traceConfig)

type traceConfig struct {
	format TraceFormat
}

// WithTraceFormat selects the trace encoding; the zero value
// (TraceJSONL) is the default, so existing WithTrace(w) call sites are
// unchanged.
func WithTraceFormat(f TraceFormat) TraceOption {
	return func(tc *traceConfig) { tc.format = f }
}

// WithTrace records the run's events on w, flushed (buffered, in
// deterministic order) before the entry point returns. With no trace
// options it records JSON Lines — the historical behavior, unchanged —
// and WithTraceFormat picks another encoding. Flush errors surface
// through the entry point's error result.
func WithTrace(w io.Writer, topts ...TraceOption) Option {
	return func(ro *runOptions) {
		var tc traceConfig
		for _, to := range topts {
			if to != nil {
				to(&tc)
			}
		}
		var s obs.Sink
		switch tc.format {
		case TraceBinary:
			s = obs.NewBinaryTracer(w)
		default:
			s = obs.NewTracer(w)
		}
		ro.observers = append(ro.observers, s)
		ro.sinks = append(ro.sinks, s)
	}
}

// WithBinaryTrace records the run's events on w in the compact binary
// trace format: shorthand for WithTrace(w, WithTraceFormat(TraceBinary)).
func WithBinaryTrace(w io.Writer) Option {
	return WithTrace(w, WithTraceFormat(TraceBinary))
}

// WithFaultPlan wraps the entry point's network in the seeded chaos
// transport before the protocol runs; fault events reach the run's
// observers. Only the protocol entry points (RunNashRing, RunLBM) use
// a network.
func WithFaultPlan(plan FaultPlan) Option {
	return func(ro *runOptions) { ro.plan = &plan }
}

// WithRingOptions installs the NASH ring's fault-tolerance options
// (watchdog, probe timeout, retries, deadline, seed).
func WithRingOptions(opts NashRingOptions) Option {
	return func(ro *runOptions) { ro.ring = opts }
}

// WithLBMOptions installs the LBM dispatcher's fault-tolerance options
// (bid deadline, retries, backoff, seed).
func WithLBMOptions(opts LBMOptions) Option {
	return func(ro *runOptions) { ro.lbm = opts }
}

// WithShardOptions installs the hierarchical NASH runtime's topology
// and fault-tolerance options (shard count, local sweep budget,
// parallel reconciliation, watchdog, retries, deadline, seed).
func WithShardOptions(opts ShardOptions) Option {
	return func(ro *runOptions) { ro.shard = opts }
}

// WithEpsilon sets the convergence tolerance of iterative entry points
// (the NASH ring's norm acceptance); non-positive keeps the default.
func WithEpsilon(eps float64) Option {
	return func(ro *runOptions) { ro.eps = eps }
}

// WithMaxIter bounds the iterations of iterative entry points;
// non-positive keeps the default.
func WithMaxIter(n int) Option {
	return func(ro *runOptions) { ro.maxIter = n }
}

// WithCheckpoint resumes the NASH ring from a checkpointed strategy
// profile (e.g. after a node crash).
func WithCheckpoint(checkpoint Profile) Option {
	return func(ro *runOptions) { ro.resume = &checkpoint }
}

// applyOptions folds the options into one runOptions.
func applyOptions(opts []Option) *runOptions {
	ro := &runOptions{}
	for _, o := range opts {
		if o != nil {
			o(ro)
		}
	}
	return ro
}

// observer combines the attached observers (nil when none).
func (ro *runOptions) observer() obs.Observer { return obs.Multi(ro.observers...) }

// network wraps n in the chaos transport when a fault plan was given.
func (ro *runOptions) network(n Network) Network {
	if ro.plan == nil {
		return n
	}
	return dist.NewChaosNetwork(n, *ro.plan, ro.observer())
}

// flush drains any WithTrace/WithBinaryTrace sinks, returning the
// first write error.
func (ro *runOptions) flush() error {
	var first error
	for _, s := range ro.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// finish merges a run error with trace-flush errors (the run error
// wins; a lost trace only surfaces when the run itself succeeded).
func (ro *runOptions) finish(err error) error {
	if ferr := ro.flush(); err == nil {
		err = ferr
	}
	return err
}
