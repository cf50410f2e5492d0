package dist

import (
	"reflect"
	"testing"
)

// hierCodecSamples is one representative value per hierarchical payload
// type, with every slice field populated (the wire format must survive
// nil vs empty vs populated slices — the fuzz harness covers the
// degenerate shapes).
func hierCodecSamples() []any {
	return []any{
		hierTokenPayload{Epoch: 3, Hop: 17, Round: 9, Sweep: 2, Norm: 0.125,
			Loads: []float64{1.5, 2.25, 0, 3}},
		hierPartialPayload{Round: 5, MEpoch: 2, Seq: 11,
			Shards: []int32{0, 3}, Norms: []float64{0.5, 0.25}, Sweeps: []int32{4, 8},
			Loads:   [][]float64{{1, 2}, {3, 4}},
			Ejected: []int32{7}},
		hierDownPayload{Round: 6, MEpoch: 1, Stop: false, Star: true, Norm: 2.5,
			Active: []int32{0, 2, 5}, Loads: []float64{5, 6, 7},
			EjectedShards: []int32{1},
			JoinUsers:     []int32{12}, JoinShards: []int32{2},
			JoinNames: []string{"late-joiner"}, JoinPhis: []float64{0.375}, Seq: 13},
		hierReqPayload{Round: 4, Seq: 21},
		hierSyncPayload{Epoch: 8, Seq: 22},
		hierRowPayload{User: 3, Epoch: 8, Seq: 23, PrevTime: 1.75, S: []float64{0.5, 0.5}},
		hierRowsPayload{Shard: 2, Seq: 24, Users: []int32{4, 5}, Ejected: []int32{6},
			Rows: [][]float64{{0.25, 0.75}, {1, 0}}},
		hierJoinPayload{Name: "u-99", Phi: 0.625, Seq: 25},
		hierJoinOKPayload{Name: "u-99", User: 99, Shard: 3, Reject: true, Reason: "stopping", Seq: 26},
	}
}

// TestHierCodecRoundTrip pins the binary wire format of every
// hierarchical payload: encode → decode must reproduce the value
// exactly, and the payload must carry the binary magic.
func TestHierCodecRoundTrip(t *testing.T) {
	for _, p := range hierCodecSamples() {
		m := Message{Kind: "t"}
		if err := m.Encode(p); err != nil {
			t.Fatalf("%T: encode: %v", p, err)
		}
		if len(m.Data) < 2 || m.Data[0] != codecMagic {
			t.Fatalf("%T: encoded without the binary codec (first byte %#x)", p, m.Data[0])
		}
		out := reflect.New(reflect.TypeOf(p)) // a *T zero value
		if err := m.Decode(out.Interface()); err != nil {
			t.Fatalf("%T: decode: %v", p, err)
		}
		if got := out.Elem().Interface(); !reflect.DeepEqual(got, p) {
			t.Errorf("%T: round trip mismatch:\n got %+v\nwant %+v", p, got, p)
		}
	}
}

// TestHierTokenAllocs gates the shard hot path: encoding a token costs
// exactly one allocation (the Data slice) and decoding into a reused
// payload costs none. A regression here multiplies across every member
// step of every sweep — ~2 messages per step at n=10,000 scale.
func TestHierTokenAllocs(t *testing.T) {
	tok := hierTokenPayload{Epoch: 1, Hop: 2, Round: 3, Sweep: 4, Norm: 0.5,
		Loads: []float64{1, 2, 3, 4}}
	encAllocs := testing.AllocsPerRun(200, func() {
		m := Message{Kind: hierKindToken}
		// Pointer-shaped, like the protocol call sites: a struct value
		// passed as `any` would box (a second allocation).
		if err := m.Encode(&tok); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > 1 {
		t.Errorf("token encode costs %.1f allocs/op, want <= 1", encAllocs)
	}

	m := Message{Kind: hierKindToken}
	if err := m.Encode(&tok); err != nil {
		t.Fatal(err)
	}
	reuse := hierTokenPayload{Loads: make([]float64, 0, 8)}
	decAllocs := testing.AllocsPerRun(200, func() {
		if err := m.Decode(&reuse); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 0 {
		t.Errorf("token decode into reused payload costs %.1f allocs/op, want 0", decAllocs)
	}
}

// TestHierDownAllocs gates the root's broadcast path the same way: the
// steady-state down (no joins) must be one allocation to encode and
// alloc-free to decode into a reused payload.
func TestHierDownAllocs(t *testing.T) {
	down := hierDownPayload{Round: 7, MEpoch: 1, Star: true, Norm: 0.25,
		Active: []int32{0, 1, 2}, Loads: []float64{1, 2, 3, 4}, Seq: 9}
	encAllocs := testing.AllocsPerRun(200, func() {
		m := Message{Kind: hierKindDown}
		if err := m.Encode(&down); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs > 1 {
		t.Errorf("down encode costs %.1f allocs/op, want <= 1", encAllocs)
	}

	m := Message{Kind: hierKindDown}
	if err := m.Encode(&down); err != nil {
		t.Fatal(err)
	}
	reuse := hierDownPayload{Active: make([]int32, 0, 8), Loads: make([]float64, 0, 8)}
	decAllocs := testing.AllocsPerRun(200, func() {
		if err := m.Decode(&reuse); err != nil {
			t.Fatal(err)
		}
	})
	if decAllocs > 0 {
		t.Errorf("down decode into reused payload costs %.1f allocs/op, want 0", decAllocs)
	}
}
