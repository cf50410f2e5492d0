package ctrl

import (
	"math"
	"reflect"
	"testing"

	"gtlb/internal/dist"
)

// FuzzLoadEstimate hammers the daemon's wire-decoding surface: arbitrary
// bytes must never panic, and whatever decodes successfully must satisfy
// the Estimate validity contract (so a malicious or corrupted peer
// cannot smuggle NaN rates into the controller). Valid estimates
// round-trip exactly.
func FuzzLoadEstimate(f *testing.F) {
	// Seed with well-formed binary encodings, then truncations and bit
	// flips of them.
	for _, e := range []Estimate{
		{Seq: 3, Time: 1.5, Phi: []float64{10, 5}, Mu: []float64{40, 0, 25}, Source: "lbgen"},
		{Seq: 1 << 40, Time: 0, Phi: []float64{0}, Mu: []float64{-1}},
	} {
		data, err := e.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		for _, at := range []int{0, 1, len(data) - 3} {
			flipped := append([]byte(nil), data...)
			flipped[at] ^= 0xff
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("not an estimate"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEstimate(dist.Message{Kind: EstimateKind, Data: data})
		if err != nil {
			return
		}
		// Decoded successfully: the validity contract must hold.
		if len(e.Phi) == 0 || len(e.Mu) == 0 {
			t.Fatalf("decoder accepted an empty estimate: %+v", e)
		}
		for _, p := range e.Phi {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("decoder accepted invalid user rate %g", p)
			}
		}
		for _, mu := range e.Mu {
			if math.IsNaN(mu) || math.IsInf(mu, 0) {
				t.Fatalf("decoder accepted invalid computer rate %g", mu)
			}
		}
		if e.Time < 0 || math.IsNaN(e.Time) {
			t.Fatalf("decoder accepted invalid time %g", e.Time)
		}
		// And a valid estimate survives a re-encode round trip.
		m, err := EncodeMessage("x", e)
		if err != nil {
			t.Fatalf("re-encoding a valid estimate failed: %v", err)
		}
		e2, err := DecodeEstimate(m)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !reflect.DeepEqual(e2, e) {
			t.Fatalf("round trip changed the estimate: %+v -> %+v", e, e2)
		}
	})
}
