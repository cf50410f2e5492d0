package dist

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gtlb/internal/obs"
)

// scriptMessages sends count messages a→b on the given network's conns
// and returns everything b received (draining until quiet).
func drainConn(t *testing.T, c Conn, quiet time.Duration) []Message {
	t.Helper()
	var got []Message
	for {
		m, err := c.RecvTimeout(quiet)
		if err != nil {
			if errors.Is(err, ErrTimeout) || errors.Is(err, ErrClosed) {
				return got
			}
			t.Fatalf("drain: %v", err)
		}
		got = append(got, m)
	}
}

func mustJoin(t *testing.T, n Network, name string) Conn {
	t.Helper()
	c, err := n.Join(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sendKinds(t *testing.T, c Conn, to string, kinds []string) {
	t.Helper()
	for k, kind := range kinds {
		m := Message{To: to, Kind: kind}
		if err := m.Encode(pingPayload{Seq: k}); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(m); err != nil {
			t.Fatalf("send %d: %v", k, err)
		}
	}
}

// TestChaosZeroPlanIdentity: a ChaosNetwork with the zero FaultPlan must
// be message-for-message identical to the network it wraps.
func TestChaosZeroPlanIdentity(t *testing.T) {
	t.Parallel()
	kinds := make([]string, 25)
	for k := range kinds {
		kinds[k] = fmt.Sprintf("kind-%d", k%4)
	}
	run := func(n Network) []Message {
		a := mustJoin(t, n, "a")
		b := mustJoin(t, n, "b")
		sendKinds(t, a, "b", kinds)
		return drainConn(t, b, 20*time.Millisecond)
	}
	plain := run(NewMemNetwork())
	wrapped := run(NewChaosNetwork(NewMemNetwork(), FaultPlan{}, nil))
	if len(plain) != len(wrapped) {
		t.Fatalf("plain delivered %d, zero-plan chaos %d", len(plain), len(wrapped))
	}
	for i := range plain {
		p, w := plain[i], wrapped[i]
		if p.From != w.From || p.To != w.To || p.Kind != w.Kind || string(p.Data) != string(w.Data) {
			t.Errorf("message %d differs: plain %+v chaos %+v", i, p, w)
		}
	}
}

// TestChaosReplayDeterminism: the same seed must reproduce the identical
// fault schedule — same deliveries in the same order, same counters —
// under a scripted (single-goroutine) exchange.
func TestChaosReplayDeterminism(t *testing.T) {
	t.Parallel()
	plan := FaultPlan{
		Seed:      0xfeed,
		Drop:      0.3,
		Duplicate: 0.25,
		Reorder:   0.2,
	}
	kinds := make([]string, 40)
	for k := range kinds {
		kinds[k] = fmt.Sprintf("k%d", k)
	}
	run := func() ([]Message, []Message, *obs.Registry) {
		ctr := obs.NewRegistry()
		n := NewChaosNetwork(NewMemNetwork(), plan, ctr)
		a := mustJoin(t, n, "a")
		b := mustJoin(t, n, "b")
		c := mustJoin(t, n, "c")
		sendKinds(t, a, "b", kinds)
		sendKinds(t, a, "c", kinds[:20])
		if err := a.Close(); err != nil { // flush reorder stashes
			t.Fatal(err)
		}
		return drainConn(t, b, 20*time.Millisecond), drainConn(t, c, 20*time.Millisecond), ctr
	}
	b1, c1, ctr1 := run()
	b2, c2, ctr2 := run()
	if !ctr1.Equal(ctr2) {
		t.Errorf("replay counters differ:\n  run1: %s\n  run2: %s", ctr1, ctr2)
	}
	cmp := func(label string, x, y []Message) {
		if len(x) != len(y) {
			t.Fatalf("%s: run1 delivered %d, run2 %d", label, len(x), len(y))
		}
		for i := range x {
			if x[i].Kind != y[i].Kind || string(x[i].Data) != string(y[i].Data) {
				t.Errorf("%s message %d differs: %q vs %q", label, i, x[i].Kind, y[i].Kind)
			}
		}
	}
	cmp("b", b1, b2)
	cmp("c", c1, c2)
	if ctr1.Get("chaos.drop") == 0 && ctr1.Get("chaos.duplicate") == 0 && ctr1.Get("chaos.reorder") == 0 {
		t.Error("schedule injected no faults; the replay test is vacuous")
	}
}

// TestChaosDropAll: Drop=1 loses every message and counts each one.
func TestChaosDropAll(t *testing.T) {
	t.Parallel()
	ctr := obs.NewRegistry()
	n := NewChaosNetwork(NewMemNetwork(), FaultPlan{Drop: 1}, ctr)
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	sendKinds(t, a, "b", []string{"x", "y", "z"})
	if got := drainConn(t, b, 10*time.Millisecond); len(got) != 0 {
		t.Errorf("expected silence, got %d messages", len(got))
	}
	if ctr.Get("chaos.drop") != 3 {
		t.Errorf("chaos.drop = %d, want 3", ctr.Get("chaos.drop"))
	}
}

// TestChaosCrashAtStep: a node dies at its configured send; earlier
// sends deliver, later ones vanish, and its receives fail ErrCrashed.
func TestChaosCrashAtStep(t *testing.T) {
	t.Parallel()
	ctr := obs.NewRegistry()
	n := NewChaosNetwork(NewMemNetwork(), FaultPlan{Crash: map[string]int{"a": 2}}, ctr)
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	sendKinds(t, a, "b", []string{"m0", "m1", "m2", "m3", "m4"})
	got := drainConn(t, b, 10*time.Millisecond)
	if len(got) != 2 || got[0].Kind != "m0" || got[1].Kind != "m1" {
		t.Fatalf("b received %d messages %v, want m0 m1", len(got), got)
	}
	if _, err := a.RecvTimeout(10 * time.Millisecond); !errors.Is(err, ErrCrashed) {
		t.Errorf("crashed node Recv err = %v, want ErrCrashed", err)
	}
	if ctr.Get("chaos.crash") != 1 {
		t.Errorf("chaos.crash = %d, want 1", ctr.Get("chaos.crash"))
	}
}

// TestChaosPartitionWindow: messages crossing the partition boundary are
// dropped exactly while the link sequence lies in [From, To).
func TestChaosPartitionWindow(t *testing.T) {
	t.Parallel()
	ctr := obs.NewRegistry()
	plan := FaultPlan{Partition: &PartitionPlan{Nodes: []string{"a"}, From: 1, To: 3}}
	n := NewChaosNetwork(NewMemNetwork(), plan, ctr)
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	sendKinds(t, a, "b", []string{"m0", "m1", "m2", "m3"})
	got := drainConn(t, b, 10*time.Millisecond)
	if len(got) != 2 || got[0].Kind != "m0" || got[1].Kind != "m3" {
		t.Fatalf("b received %v, want m0 m3", got)
	}
	if ctr.Get("chaos.partition") != 2 {
		t.Errorf("chaos.partition = %d, want 2", ctr.Get("chaos.partition"))
	}
	// Traffic on the same side of the cut is unaffected.
	c := mustJoin(t, n, "c")
	sendKinds(t, c, "b", []string{"n0", "n1", "n2"})
	if got := drainConn(t, b, 10*time.Millisecond); len(got) != 3 {
		t.Errorf("same-side traffic lost: got %d of 3", len(got))
	}
}

// TestChaosDelayDelivers: delayed messages still arrive.
func TestChaosDelayDelivers(t *testing.T) {
	t.Parallel()
	ctr := obs.NewRegistry()
	n := NewChaosNetwork(NewMemNetwork(), FaultPlan{Delay: 1, MaxDelay: 3 * time.Millisecond}, ctr)
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	sendKinds(t, a, "b", []string{"x", "y", "z"})
	deadline := time.Now().Add(2 * time.Second)
	got := 0
	for got < 3 && time.Now().Before(deadline) {
		if _, err := b.RecvTimeout(50 * time.Millisecond); err == nil {
			got++
		}
	}
	if got != 3 {
		t.Errorf("received %d of 3 delayed messages", got)
	}
	if ctr.Get("chaos.delay") != 3 {
		t.Errorf("chaos.delay = %d, want 3", ctr.Get("chaos.delay"))
	}
}

// TestChaosReorderFlushOnClose: messages held for reordering are not
// lost when the sender leaves — Close flushes them in order.
func TestChaosReorderFlushOnClose(t *testing.T) {
	t.Parallel()
	ctr := obs.NewRegistry()
	n := NewChaosNetwork(NewMemNetwork(), FaultPlan{Reorder: 1}, ctr)
	a := mustJoin(t, n, "a")
	b := mustJoin(t, n, "b")
	sendKinds(t, a, "b", []string{"m0", "m1"})
	if got := drainConn(t, b, 10*time.Millisecond); len(got) != 0 {
		t.Fatalf("held messages delivered early: %v", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	got := drainConn(t, b, 10*time.Millisecond)
	if len(got) != 2 || got[0].Kind != "m0" || got[1].Kind != "m1" {
		t.Errorf("flush delivered %v, want m0 m1", got)
	}
	if ctr.Get("chaos.reorder") != 2 {
		t.Errorf("chaos.reorder = %d, want 2", ctr.Get("chaos.reorder"))
	}
}

// TestLinkStreamSeedSeparatesLinks: the per-link stream derivation must
// not collide on concatenation-ambiguous names or direction.
func TestLinkStreamSeedSeparatesLinks(t *testing.T) {
	t.Parallel()
	if linkStreamSeed(1, "a", "bc") == linkStreamSeed(1, "ab", "c") {
		t.Error("concatenation-ambiguous link names collide")
	}
	if linkStreamSeed(1, "a", "b") == linkStreamSeed(1, "b", "a") {
		t.Error("link direction is not part of the stream seed")
	}
	if linkStreamSeed(1, "a", "b") == linkStreamSeed(2, "a", "b") {
		t.Error("plan seed does not reach the stream seed")
	}
}
