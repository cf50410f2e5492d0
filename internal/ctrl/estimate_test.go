package ctrl

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"gtlb/internal/dist"
)

// TestEstimateBinaryRoundTrip: the binary encoding reproduces every
// field exactly, through the bare codec and through a dist.Message.
func TestEstimateBinaryRoundTrip(t *testing.T) {
	for _, want := range []Estimate{
		{Seq: 3, Time: 1.5, Phi: []float64{10, 5}, Mu: []float64{40, 0, -2, 25}, Source: "lbgen"},
		{Seq: math.MaxInt64, Time: math.MaxFloat64, Phi: []float64{math.SmallestNonzeroFloat64}, Mu: []float64{1e300}},
		{Seq: -7, Time: 0, Phi: []float64{0.1 + 0.2}, Mu: []float64{1}, Source: strings.Repeat("é", 200)},
	} {
		data, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Estimate
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip = %+v, want %+v", got, want)
		}
		m, err := EncodeMessage("lbd", want)
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Data) != string(data) {
			t.Errorf("message payload differs from MarshalBinary")
		}
		got, err = DecodeEstimate(m)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeEstimate = %+v, %v, want %+v", got, err, want)
		}
	}
}

// TestEstimateDecodeRejectsInvalidRates: values the layout carries but
// the controller must never see — NaN, Inf, negative user rates, a
// non-finite clock — decode but fail Validate, so DecodeEstimate drops
// them.
func TestEstimateDecodeRejectsInvalidRates(t *testing.T) {
	ok := Estimate{Seq: 1, Time: 2, Phi: []float64{10}, Mu: []float64{40}}
	for name, mutate := range map[string]func(*Estimate){
		"NaN user rate":      func(e *Estimate) { e.Phi = []float64{math.NaN()} },
		"Inf user rate":      func(e *Estimate) { e.Phi = []float64{math.Inf(1)} },
		"negative user rate": func(e *Estimate) { e.Phi = []float64{5, -1} },
		"NaN computer rate":  func(e *Estimate) { e.Mu = []float64{40, math.NaN()} },
		"-Inf computer rate": func(e *Estimate) { e.Mu = []float64{math.Inf(-1)} },
		"Inf time":           func(e *Estimate) { e.Time = math.Inf(1) },
		"negative time":      func(e *Estimate) { e.Time = -1 },
		"no users":           func(e *Estimate) { e.Phi = nil },
		"no computers":       func(e *Estimate) { e.Mu = nil },
	} {
		e := ok
		mutate(&e)
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var raw Estimate
		if err := raw.UnmarshalBinary(data); err != nil {
			t.Errorf("%s: the layout itself failed to decode: %v", name, err)
		}
		if _, err := DecodeEstimate(dist.Message{Kind: EstimateKind, Data: data}); err == nil {
			t.Errorf("%s: DecodeEstimate accepted it", name)
		}
	}
}

// TestEstimateDecodeRejectsMalformedBytes: truncation, a wrong header,
// trailing bytes and length prefixes that overrun the payload are
// errors, and a failed decode leaves the target untouched.
func TestEstimateDecodeRejectsMalformedBytes(t *testing.T) {
	data, err := Estimate{Seq: 1, Time: 2, Phi: []float64{10}, Mu: []float64{40, 30}, Source: "s"}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Bytes 0..1 are the codec header, 2 Seq, 3..10 Time, 11 len(Phi).
	overrun := append([]byte(nil), data...)
	overrun[11] = 0x7f
	huge := append(append([]byte(nil), data[:11]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	cases := map[string][]byte{
		"empty":          nil,
		"magic":          append([]byte{data[0] + 1}, data[1:]...),
		"wire type":      append([]byte{data[0], data[1] + 1}, data[2:]...),
		"truncated":      data[:len(data)-1],
		"cut in Time":    data[:5],
		"trailing":       append(append([]byte(nil), data...), 0),
		"overrun length": overrun,
		"huge length":    huge,
	}
	for name, b := range cases {
		sentinel := Estimate{Seq: 99}
		if err := sentinel.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if !reflect.DeepEqual(sentinel, Estimate{Seq: 99}) {
			t.Errorf("%s: failed decode modified the target: %+v", name, sentinel)
		}
	}
}
