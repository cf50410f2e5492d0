// Package ctrl is the live control plane: a resident reconciliation
// loop that keeps the §2.2.1 COOP/NBS allocation current as load drifts
// and machines churn. It splits into two layers:
//
//   - Controller, a pure deterministic state machine: it ingests load
//     estimates, detects drift against the active allocation, re-runs
//     COOP incrementally (warm-started from the previous fixed point via
//     game.WarmCOOP) behind a hysteresis deadband, applies Φ-feasibility
//     admission control that sheds or queues excess demand instead of
//     erroring, treats computer churn (join/leave/crash) as a
//     first-class input, and checkpoints its state for crash recovery;
//   - Daemon, the goroutine wrapper that feeds a Controller from a
//     dist transport endpoint with timeouts, backoff and duplicate
//     fencing, flushes checkpoints after committed epochs, and shuts
//     down gracefully (drain, flush, join) on request.
//
// Determinism contract: the Controller is a pure function of its
// estimate stream — for a fixed generator seed the sequence of Decision
// values (and their formatted epoch log) is byte-identical across runs,
// restarts from a checkpoint included. Nothing in this package reads
// the wall clock or draws randomness outside seeded generator streams.
package ctrl

import (
	"errors"
	"fmt"
	"math"

	"gtlb/internal/dist"
)

// EstimateKind is the dist.Message kind carrying a binary-encoded
// Estimate (see MarshalBinary) between a load reporter (lbgen) and the
// daemon (lbd).
const EstimateKind = "ctrl.estimate"

// Estimate is one observation of the system's offered load and
// capacity: the per-user arrival rates φ_j and the per-computer
// processing rates μ_i. A non-positive μ_i means computer i is down
// (crashed or administratively drained); growing the Mu vector reports
// newly joined computers. Estimates are produced by a single reporter
// stream with strictly increasing Seq and non-decreasing Time, which is
// what lets the daemon fence duplicates and reordered deliveries.
type Estimate struct {
	// Seq is the reporter-assigned sequence number, strictly
	// increasing. The controller discards estimates whose Seq does not
	// advance past the last applied one.
	Seq int `json:"seq"`
	// Time is the reporter's logical clock in seconds (the generator's
	// virtual time, never wall time). Used for stale-estimate expiry
	// and backlog integration.
	Time float64 `json:"time"`
	// Phi are the per-user arrival rates (jobs/s), all non-negative.
	Phi []float64 `json:"phi"`
	// Mu are the per-computer processing rates (jobs/s); values at or
	// below zero mark the computer as down.
	Mu []float64 `json:"mu"`
	// Source optionally names the reporter.
	Source string `json:"source,omitempty"`
}

// Validate checks the estimate is well-formed: at least one computer,
// finite non-negative user rates, finite computer rates.
func (e Estimate) Validate() error {
	if len(e.Mu) == 0 {
		return errors.New("ctrl: estimate has no computers")
	}
	if len(e.Phi) == 0 {
		return errors.New("ctrl: estimate has no users")
	}
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) || e.Time < 0 {
		return fmt.Errorf("ctrl: estimate time must be a non-negative finite number, got %g", e.Time)
	}
	for j, p := range e.Phi {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("ctrl: user rate %d must be a non-negative finite number, got %g", j, p)
		}
	}
	for i, m := range e.Mu {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("ctrl: computer rate %d must be finite, got %g", i, m)
		}
	}
	return nil
}

// TotalPhi returns the offered load Σφ_j.
func (e Estimate) TotalPhi() float64 {
	var t float64
	for _, p := range e.Phi {
		t += p
	}
	return t
}

// UpCapacity returns the aggregate rate of the up computers and how
// many there are.
func (e Estimate) UpCapacity() (sum float64, up int) {
	for _, m := range e.Mu {
		if m > 0 {
			sum += m
			up++
		}
	}
	return sum, up
}

// EncodeMessage packs the estimate into a transport message addressed
// to the given node.
func EncodeMessage(to string, e Estimate) (dist.Message, error) {
	data, err := e.MarshalBinary()
	if err != nil {
		return dist.Message{}, err
	}
	return dist.Message{To: to, Kind: EstimateKind, Data: data}, nil
}

// DecodeEstimate unpacks an estimate from its wire form. It rejects
// messages of the wrong kind and malformed payloads; the caller counts
// and drops those rather than failing the ingest loop.
func DecodeEstimate(m dist.Message) (Estimate, error) {
	if m.Kind != EstimateKind {
		return Estimate{}, fmt.Errorf("ctrl: message kind %q is not %q", m.Kind, EstimateKind)
	}
	var e Estimate
	if err := e.UnmarshalBinary(m.Data); err != nil {
		return Estimate{}, err
	}
	if err := e.Validate(); err != nil {
		return Estimate{}, err
	}
	return e, nil
}

// MarshalBinary encodes the estimate in dist's binary codec
// (dist.EstimatePayload): the codec's two-byte header, whose wire type
// id versions the layout, then varint Seq,
// little-endian float64 Time, uvarint-length float64 slices Phi and
// Mu, and uvarint-length Source.
func (e Estimate) MarshalBinary() ([]byte, error) {
	m := dist.Message{Kind: EstimateKind}
	err := m.Encode(dist.EstimatePayload(e))
	return m.Data, err
}

// UnmarshalBinary decodes the MarshalBinary layout. The codec checks
// every length prefix against the bytes that remain before it
// allocates and rejects trailing bytes; a failed decode leaves e
// untouched. The values are not checked; DecodeEstimate runs Validate
// on them.
func (e *Estimate) UnmarshalBinary(data []byte) error {
	var p dist.EstimatePayload
	m := dist.Message{Kind: EstimateKind, Data: data}
	if err := m.Decode(&p); err != nil {
		return err
	}
	*e = Estimate(p)
	return nil
}
