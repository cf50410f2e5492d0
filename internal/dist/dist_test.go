package dist

import (
	"math"
	"sync"
	"testing"

	"gtlb/internal/metrics"
	"gtlb/internal/noncoop"
)

func TestMemNetworkBasic(t *testing.T) {
	t.Parallel()
	n := NewMemNetwork()
	a, err := n.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	m := Message{To: "b", Kind: "ping"}
	if err := m.Encode(pingPayload{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.Kind != "ping" {
		t.Errorf("got %+v", got)
	}
	var p pingPayload
	if err := got.Decode(&p); err != nil || p.Seq != 7 {
		t.Errorf("payload = %+v, err=%v", p, err)
	}
}

func TestMemNetworkDuplicateJoin(t *testing.T) {
	t.Parallel()
	n := NewMemNetwork()
	if _, err := n.Join("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join("x"); err == nil {
		t.Error("duplicate join accepted")
	}
}

func TestMemNetworkUnknownRecipient(t *testing.T) {
	t.Parallel()
	n := NewMemNetwork()
	a, _ := n.Join("a")
	if err := a.Send(Message{To: "ghost", Kind: "x"}); err == nil {
		t.Error("send to unknown node succeeded")
	}
}

func TestMemNetworkClose(t *testing.T) {
	t.Parallel()
	n := NewMemNetwork()
	a, _ := n.Join("a")
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err != ErrClosed {
		t.Errorf("Recv after close = %v, want ErrClosed", err)
	}
	// Closing twice is safe.
	if err := a.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestMessageDecodeError(t *testing.T) {
	t.Parallel()
	m := Message{Kind: "x", Data: []byte{0xff, 0x01}}
	var p pingPayload
	if err := m.Decode(&p); err == nil {
		t.Error("garbage decoded")
	}
	var s string
	if err := m.Decode(&s); err == nil {
		t.Error("decoded into a target with no binary encoding")
	}
}

// TestMessageEncodeUnsupportedType: a value that is not one of the
// codec's payload types has no wire format.
func TestMessageEncodeUnsupportedType(t *testing.T) {
	t.Parallel()
	for _, v := range []any{"hello", 42, struct{ X int }{1}, nil} {
		m := Message{Kind: "x"}
		if err := m.Encode(v); err == nil {
			t.Errorf("Encode(%T) succeeded, want an error", v)
		}
		if m.Data != nil {
			t.Errorf("Encode(%T) wrote %d bytes of Data", v, len(m.Data))
		}
	}
}

func TestTCPNetworkRoundTrip(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	a, err := netw.Join("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := netw.Join("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	m := Message{To: "b", Kind: "ping"}
	if err := m.Encode(pingPayload{Seq: 42}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var p pingPayload
	if err := got.Decode(&p); err != nil || p.Seq != 42 || got.From != "a" {
		t.Errorf("got %+v payload %+v err %v", got, p, err)
	}
}

func paperSystem(t *testing.T, rho float64) noncoop.System {
	t.Helper()
	mu := []float64{
		10, 10, 10, 10, 10, 10,
		20, 20, 20, 20, 20,
		50, 50, 50,
		100, 100,
	}
	fractions := []float64{0.3, 0.2, 0.1, 0.07, 0.07, 0.06, 0.06, 0.06, 0.04, 0.04}
	total := rho * 510
	phi := make([]float64, len(fractions))
	for j, f := range fractions {
		phi[j] = f * total
	}
	sys, err := noncoop.NewSystem(mu, phi)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestNashRingMatchesCentralized: the distributed protocol must reach the
// same equilibrium as the centralized iteration of internal/noncoop.
func TestNashRingMatchesCentralized(t *testing.T) {
	t.Parallel()
	sys := paperSystem(t, 0.6)
	res, err := RunNashRing(NewMemNetwork(), sys, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ValidateProfile(res.Profile); err != nil {
		t.Fatalf("ring profile infeasible: %v", err)
	}
	ok, err := noncoop.IsNashEquilibrium(sys, res.Profile, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("ring result is not a Nash equilibrium")
	}
	central, err := noncoop.Nash(sys, noncoop.NashOptions{Init: noncoop.InitProportional, Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	d := metrics.LInfNorm(sys.Loads(res.Profile), sys.Loads(central.Profile))
	if d > 1e-6 {
		t.Errorf("ring and centralized equilibria differ by %v", d)
	}
	if res.Iterations == 0 {
		t.Error("ring reported zero iterations")
	}
}

func TestNashRingOverTCP(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	sys := paperSystem(t, 0.5)
	res, err := RunNashRing(netw, sys, 1e-8, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := noncoop.IsNashEquilibrium(sys, res.Profile, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("TCP ring result is not a Nash equilibrium")
	}
}

func TestNashRingSingleUser(t *testing.T) {
	t.Parallel()
	sys, err := noncoop.NewSystem([]float64{10, 5}, []float64{6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNashRing(NewMemNetwork(), sys, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ValidateProfile(res.Profile); err != nil {
		t.Fatal(err)
	}
}

func TestNashRingIterationBudget(t *testing.T) {
	t.Parallel()
	sys := paperSystem(t, 0.9)
	if _, err := RunNashRing(NewMemNetwork(), sys, 1e-15, 2); err == nil {
		t.Error("expected failure with a two-iteration budget")
	}
}

func TestNashRingInvalidSystem(t *testing.T) {
	t.Parallel()
	bad := noncoop.System{Mu: []float64{1}, Phi: []float64{2}}
	if _, err := RunNashRing(NewMemNetwork(), bad, 0, 0); err == nil {
		t.Error("invalid system accepted")
	}
}

func table51Values() []float64 {
	mus := []float64{
		0.13, 0.13,
		0.065, 0.065, 0.065,
		0.026, 0.026, 0.026, 0.026, 0.026,
		0.013, 0.013, 0.013, 0.013, 0.013, 0.013,
	}
	t := make([]float64, len(mus))
	for i, m := range mus {
		t[i] = 1 / m
	}
	return t
}

// TestLBMTruthfulRound runs the full bidding protocol with truthful
// agents and checks that every computer's own report matches the
// dispatcher's outcome and that nobody loses money.
func TestLBMTruthfulRound(t *testing.T) {
	t.Parallel()
	trueVals := table51Values()
	policies := make([]BidPolicy, len(trueVals))
	res, err := RunLBM(NewMemNetwork(), trueVals, policies, 0.5*0.663)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range res.Computers {
		if math.Abs(rep.Load-res.Outcome.Loads[i]) > 1e-12 {
			t.Errorf("computer %d sees load %v, dispatcher computed %v", i, rep.Load, res.Outcome.Loads[i])
		}
		if math.Abs(rep.Payment-res.Outcome.Payments[i]) > 1e-12 {
			t.Errorf("computer %d sees payment %v, dispatcher computed %v", i, rep.Payment, res.Outcome.Payments[i])
		}
		if rep.Profit < -1e-9 {
			t.Errorf("truthful computer %d has negative profit %v", i, rep.Profit)
		}
		if math.Abs(rep.Bid-trueVals[i]) > 1e-15 {
			t.Errorf("computer %d bid %v, want true value %v", i, rep.Bid, trueVals[i])
		}
	}
}

// TestLBMLyingAgentPenalized: an agent that overbids via its policy ends
// with a lower profit than in the truthful round (Theorem 5.2 through
// the protocol).
func TestLBMLyingAgentPenalized(t *testing.T) {
	t.Parallel()
	trueVals := table51Values()
	phi := 0.5 * 0.663

	truthRes, err := RunLBM(NewMemNetwork(), trueVals, make([]BidPolicy, len(trueVals)), phi)
	if err != nil {
		t.Fatal(err)
	}
	policies := make([]BidPolicy, len(trueVals))
	policies[0] = ScaledBid(1.33)
	liarRes, err := RunLBM(NewMemNetwork(), trueVals, policies, phi)
	if err != nil {
		t.Fatal(err)
	}
	if liarRes.Computers[0].Profit > truthRes.Computers[0].Profit+1e-9 {
		t.Errorf("liar profit %v exceeds truthful profit %v",
			liarRes.Computers[0].Profit, truthRes.Computers[0].Profit)
	}
	if math.Abs(liarRes.Bids[0]-1.33*trueVals[0]) > 1e-12 {
		t.Errorf("bid = %v, want %v", liarRes.Bids[0], 1.33*trueVals[0])
	}
}

func TestLBMOverTCP(t *testing.T) {
	t.Parallel()
	netw, _, closeFn, err := NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	trueVals := []float64{1, 2, 4}
	res, err := RunLBM(netw, trueVals, make([]BidPolicy, 3), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range res.Outcome.Loads {
		total += l
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Errorf("loads sum to %v, want 1", total)
	}
}

func TestLBMValidation(t *testing.T) {
	t.Parallel()
	if _, err := RunLBM(NewMemNetwork(), nil, nil, 1); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := RunLBM(NewMemNetwork(), []float64{1}, make([]BidPolicy, 2), 0.5); err == nil {
		t.Error("policy length mismatch accepted")
	}
}

func TestConcurrentSends(t *testing.T) {
	t.Parallel()
	// The in-memory transport must tolerate many concurrent senders.
	n := NewMemNetwork()
	sink, _ := n.Join("sink")
	const workers = 16
	const each = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c, err := n.Join(string(rune('a' + w)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				if err := c.Send(Message{To: "sink", Kind: "n"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	got := 0
	done := make(chan struct{})
	go func() {
		for got < workers*each {
			if _, err := sink.Recv(); err != nil {
				return
			}
			got++
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if got != workers*each {
		t.Errorf("received %d messages, want %d", got, workers*each)
	}
}

func TestLBMService(t *testing.T) {
	t.Parallel()
	trueVals := table51Values()
	svc, err := NewLBMService(NewMemNetwork, trueVals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := svc.Current(); ok {
		t.Error("Current reported an allocation before any round")
	}
	res, err := svc.Start(0.3 * 0.663)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range res.Outcome.Loads {
		total += l
	}
	if math.Abs(total-0.3*0.663) > 1e-9 {
		t.Errorf("loads sum to %v", total)
	}

	// The arrival rate rises: the service re-runs the protocol and the
	// installed allocation follows.
	res2, err := svc.UpdateRate(0.7 * 0.663)
	if err != nil {
		t.Fatal(err)
	}
	cur, phi, ok := svc.Current()
	if !ok || phi != 0.7*0.663 {
		t.Errorf("current phi = %v ok=%v", phi, ok)
	}
	if cur.Outcome.Loads[0] != res2.Outcome.Loads[0] {
		t.Error("Current does not reflect the latest round")
	}
	if svc.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", svc.Rounds())
	}

	// A failing round (infeasible rate) keeps the previous allocation.
	if _, err := svc.UpdateRate(10); err == nil {
		t.Error("infeasible rate accepted")
	}
	_, phi, _ = svc.Current()
	if phi != 0.7*0.663 {
		t.Errorf("failed round replaced the allocation (phi=%v)", phi)
	}

	svc.Stop()
	if _, err := svc.UpdateRate(0.1); err == nil {
		t.Error("update accepted after Stop")
	}
}

// The exposition tests moved to internal/cliutil with the Expose
// helpers themselves (see cliutil/expose_test.go).

func TestLBMServiceValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewLBMService(nil, []float64{1}, nil); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := NewLBMService(NewMemNetwork, nil, nil); err == nil {
		t.Error("empty computers accepted")
	}
	if _, err := NewLBMService(NewMemNetwork, []float64{1}, make([]BidPolicy, 2)); err == nil {
		t.Error("policy mismatch accepted")
	}
}
