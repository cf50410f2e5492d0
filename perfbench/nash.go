package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gtlb/internal/dist"
	"gtlb/internal/game"
	"gtlb/internal/noncoop"
	"gtlb/internal/queueing"
)

// The nash-tcp workload runs the sharded NASH protocol with default
// shard options to ε = 1e-6·m on the 4-computer system of the
// repository's distributed benchmark, with m = 100 users, over the TCP
// loopback transport. The seed shuffles which user carries which
// arrival rate. One timed call is one solve on a fresh network.
const nashUsers = 100

var nashEps = 1e-6 * nashUsers

type nashInputs struct {
	sys    noncoop.System
	oracle game.ShardedResult
}

// nashSystem is the 4-computer system at 40% utilization, its arrival
// rate spread over seven user classes, in a seeded user order.
func nashSystem(seed uint64) (noncoop.System, error) {
	mu := []float64{30, 20, 15, 10}
	phi := make([]float64, nashUsers)
	for j := range phi {
		phi[j] = (1.0 + 0.3*float64(j%7)) * 30 / nashUsers
	}
	rng := queueing.NewRNG(splitmix(seed))
	for j := len(phi) - 1; j > 0; j-- {
		k := rng.Intn(j + 1)
		phi[j], phi[k] = phi[k], phi[j]
	}
	return noncoop.NewSystem(mu, phi)
}

// oracle computes in process the profile a fault-free run must produce.
func oracle(sys noncoop.System) (game.ShardedResult, error) {
	m := sys.NumUsers()
	return game.ShardedBestReply(sys, game.PlanShards(m, game.DefaultShardCount(m)), nashEps, 0, game.ShardedOpts{})
}

func setupNash(r *run) (nashInputs, error) {
	var in nashInputs
	err := r.timeSetup(func() error {
		sys, err := nashSystem(r.seed)
		if err != nil {
			return err
		}
		in.sys = sys
		if in.oracle, err = oracle(sys); err != nil {
			return err
		}
		_, _, closeNet, err := dist.NewTCPNetwork("127.0.0.1:0")
		if err != nil {
			return err
		}
		return closeNet()
	})
	return in, err
}

// solve runs one solve on a fresh TCP network, wrapped by wrap if set.
func solve(in nashInputs, seed uint64, wrap func(dist.Network) dist.Network) (dist.NashShardedResult, error) {
	netw, _, closeNet, err := dist.NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		return dist.NashShardedResult{}, err
	}
	if wrap != nil {
		netw = wrap(netw)
	}
	res, err := dist.RunNashShardedWith(netw, in.sys, nashEps, 0, dist.ShardOptions{Seed: seed})
	if cerr := closeNet(); err == nil && cerr != nil {
		err = fmt.Errorf("closing the network: %w", cerr)
	}
	return res, err
}

// nashLoop makes timed solves until the budget is spent.
func nashLoop(r *run, in nashInputs) {
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < r.budget; k++ {
		var res dist.NashShardedResult
		err := r.call(func() (float64, error) {
			var err error
			res, err = solve(in, r.seed, nil)
			return 1, err
		})
		if err != nil {
			return
		}
		checkNash(r, in, res)
	}
}

// checkNash compares a solve with the in-process oracle, bit for bit,
// and checks its best-reply gap against ε.
func checkNash(r *run, in nashInputs, res dist.NashShardedResult) {
	want := in.oracle
	if res.Rounds != want.Rounds || res.Sweeps != want.Sweeps || res.Norm != want.Norm {
		r.fail("rounds/sweeps/norm %d/%d/%g, oracle %d/%d/%g", res.Rounds, res.Sweeps, res.Norm, want.Rounds, want.Sweeps, want.Norm)
	}
	for j := range want.Profile.S {
		for i := range want.Profile.S[j] {
			if res.Profile.S[j][i] != want.Profile.S[j][i] {
				r.fail("profile[%d][%d] = %v, oracle %v", j, i, res.Profile.S[j][i], want.Profile.S[j][i])
				return
			}
		}
	}
	gap, err := bestReplyGap(in.sys, res.Profile)
	if err != nil || !(gap <= nashEps) {
		r.fail("best-reply gap %g (eps %g): %v", gap, nashEps, err)
	}
}

// bestReplyGap is one round-robin best-reply sweep over the profile,
// returning the Σ|Δt| norm; an exact equilibrium scores 0.
func bestReplyGap(sys noncoop.System, prof noncoop.Profile) (float64, error) {
	m, n := sys.NumUsers(), sys.NumComputers()
	loads := make([]float64, n)
	rows := make([][]float64, m)
	for j := 0; j < m; j++ {
		rows[j] = append([]float64(nil), prof.S[j]...)
		for i := 0; i < n; i++ {
			loads[i] += rows[j][i] * sys.Phi[j]
		}
	}
	avail := make([]float64, n)
	newRow := make([]float64, n)
	ord := make([]int, n)
	var norm float64
	for j := 0; j < m; j++ {
		row, phi := rows[j], sys.Phi[j]
		for i := 0; i < n; i++ {
			avail[i] = sys.Mu[i] - loads[i] + row[i]*phi
		}
		before := noncoop.BestReplyTime(avail, row, phi)
		if err := noncoop.BestReplyInto(avail, phi, newRow, ord); err != nil {
			return math.Inf(1), err
		}
		norm += math.Abs(noncoop.BestReplyTime(avail, newRow, phi) - before)
		for i := 0; i < n; i++ {
			loads[i] += (newRow[i] - row[i]) * phi
		}
		copy(row, newRow)
	}
	return norm, nil
}

func runNash(r *run) error {
	in, err := setupNash(r)
	if err != nil {
		return err
	}
	nashLoop(r, in)
	r.endToEnd()
	fmt.Printf("solve_s %.6g (fastest solve), %d rounds, %d sweeps per solve\n", r.best().p50/1e3, in.oracle.Rounds, in.oracle.Sweeps)
	return nil
}

// timingNetwork decorates a Network: it sums the time spent in Send
// and blocked in Recv, over all nodes.
type timingNetwork struct {
	inner                            dist.Network
	sends, sendNs, recvCalls, recvNs atomic.Int64
}

func (n *timingNetwork) Join(name string) (dist.Conn, error) {
	c, err := n.inner.Join(name)
	if err != nil {
		return nil, err
	}
	return &timingConn{Conn: c, n: n}, nil
}

type timingConn struct {
	dist.Conn
	n *timingNetwork
}

func (c *timingConn) sent(start time.Time) {
	c.n.sendNs.Add(int64(time.Since(start)))
	c.n.sends.Add(1)
}

func (c *timingConn) Send(m dist.Message) error {
	start := time.Now()
	err := c.Conn.Send(m)
	c.sent(start)
	return err
}

// SendBatch keeps the inner transport's batching visible to the
// protocol, as dist.CountingNetwork does.
func (c *timingConn) SendBatch(ms []dist.Message) error {
	start := time.Now()
	err := dist.SendAll(c.Conn, ms)
	c.sent(start)
	return err
}

func (c *timingConn) received(start time.Time) {
	c.n.recvNs.Add(int64(time.Since(start)))
	c.n.recvCalls.Add(1)
}

func (c *timingConn) Recv() (dist.Message, error) {
	start := time.Now()
	m, err := c.Conn.Recv()
	c.received(start)
	return m, err
}

func (c *timingConn) RecvTimeout(d time.Duration) (dist.Message, error) {
	start := time.Now()
	m, err := c.Conn.RecvTimeout(d)
	c.received(start)
	return m, err
}

// pingPong returns the median one-way hop time, in ns, of size-byte
// messages bounced n times between two nodes of netw.
func pingPong(netw dist.Network, size, n int) (float64, error) {
	a, err := netw.Join("ping")
	if err != nil {
		return 0, err
	}
	b, err := netw.Join("pong")
	if err != nil {
		_ = a.Close() // the join error wins
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := b.Recv()
			if err != nil || m.Kind == "stop" {
				return
			}
			if b.Send(dist.Message{From: "pong", To: "ping", Kind: "pong", Data: m.Data}) != nil {
				return
			}
		}
	}()
	payload := make([]byte, size)
	rtts := make([]float64, 0, n)
	var hopErr error
	for i := 0; i < n; i++ {
		start := time.Now()
		if hopErr = a.Send(dist.Message{From: "ping", To: "pong", Kind: "ping", Data: payload}); hopErr != nil {
			break
		}
		if _, hopErr = a.RecvTimeout(5 * time.Second); hopErr != nil {
			break
		}
		rtts = append(rtts, float64(time.Since(start)))
	}
	stopErr := a.Send(dist.Message{From: "ping", To: "pong", Kind: "stop"})
	wg.Wait()
	err = errors.Join(hopErr, stopErr, a.Close(), b.Close())
	return median(rtts) / 2, err
}

// traceNash alternates untraced solves with traced ones: a span around
// each solve and counters on every Send and Recv of a timing network.
func traceNash(r *run) error {
	in, err := setupNash(r)
	if err != nil {
		return err
	}
	log := newSpanLog()
	send, recv := log.counter("dist", "Send"), log.counter("dist", "Recv")
	var msgs float64
	timed := func(wrap func(dist.Network) dist.Network) error {
		var res dist.NashShardedResult
		err := r.call(func() (float64, error) {
			var err error
			res, err = solve(in, r.seed, wrap)
			return 1, err
		})
		if err == nil {
			checkNash(r, in, res)
		}
		return err
	}
	plain, instr := r.alternate(func(int) error { return timed(nil) }, func(int) error {
		var cnt *dist.CountingNetwork
		tn := &timingNetwork{}
		err := log.timeSpan("dist", "RunNashSharded", func() error {
			return timed(func(netw dist.Network) dist.Network {
				cnt = dist.NewCountingNetwork(netw)
				tn.inner = cnt
				return tn
			})
		})
		send.Calls += tn.sends.Load()
		send.Total += time.Duration(tn.sendNs.Load())
		recv.Calls += tn.recvCalls.Load()
		recv.Total += time.Duration(tn.recvNs.Load())
		if cnt != nil {
			n, _ := cnt.Totals()
			msgs += float64(n)
		}
		return err
	})

	l, err := measureLayers(r)
	if err != nil {
		return err
	}
	solves := instr.work
	attribution(r.name, "solve", instr.nsPer(), []share{
		{"game", "best-reply arithmetic (in-process oracle)", l.oracleNs, 1},
		{"dist", "TCP hop at the mean message size", l.tcpHopNs, msgs / solves},
	})
	fmt.Printf("not additive (nodes run concurrently): %.4g us per Send, %.4g ms blocked per Recv, %.0f sends and %.0f receives per solve\n",
		float64(send.Total)/float64(send.Calls)/1e3, float64(recv.Total)/float64(recv.Calls)/1e6,
		float64(send.Calls)/solves, float64(recv.Calls)/solves)
	return r.finishTrace(log, instr, plain, "solve")
}

// measureDist profiles dist, game and noncoop on the nash-tcp inputs.
func (l *layers) measureDist(r *run) error {
	sys, err := nashSystem(r.seed)
	if err != nil {
		return err
	}
	var want game.ShardedResult
	oracleNs := make([]float64, 5)
	for i := range oracleNs {
		start := time.Now()
		if want, err = oracle(sys); err != nil {
			return err
		}
		oracleNs[i] = float64(time.Since(start))
	}
	l.oracleNs = median(oracleNs)

	var cnt *dist.CountingNetwork
	tn := &timingNetwork{}
	res, err := solve(nashInputs{sys: sys, oracle: want}, r.seed, func(netw dist.Network) dist.Network {
		cnt = dist.NewCountingNetwork(netw)
		tn.inner = cnt
		return tn
	})
	if err != nil {
		return err
	}
	msgs, bytes := cnt.Totals()
	size := int(bytes / msgs)

	netw, _, closeNet, err := dist.NewTCPNetwork("127.0.0.1:0")
	if err != nil {
		return err
	}
	l.tcpHopNs, err = pingPong(netw, size, 2000)
	if cerr := closeNet(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("tcp ping-pong: %w", err)
	}

	// One user's best reply against the equilibrium loads.
	n := sys.NumComputers()
	avail := make([]float64, n)
	for i := range avail {
		avail[i] = sys.Mu[i]
		for j := range want.Profile.S {
			if j != 0 {
				avail[i] -= want.Profile.S[j][i] * sys.Phi[j]
			}
		}
	}
	out, ord := make([]float64, n), make([]int, n)
	var brErr error
	brNs := perCall(100_000, func(int) {
		if err := noncoop.BestReplyInto(avail, sys.Phi[0], out, ord); err != nil {
			brErr = err
		}
	})
	if brErr != nil {
		return brErr
	}

	r.set("dist.messages", "count", float64(msgs))
	r.set("dist.payload_bytes", "B", float64(bytes))
	r.set("dist.rounds", "count", float64(res.Rounds))
	r.set("dist.sweeps", "count", float64(res.Sweeps))
	r.set("dist.send_us", "us", float64(tn.sendNs.Load())/float64(tn.sends.Load())/1e3)
	r.set("dist.recv_wait_ms", "ms", float64(tn.recvNs.Load())/float64(tn.recvCalls.Load())/1e6)
	r.set("dist.tcp_hop_us", "us", l.tcpHopNs/1e3)
	r.set("game.oracle_ms", "ms", l.oracleNs/1e6)
	r.set("noncoop.bestreply_ns", "ns", brNs)
	fmt.Printf("dist on one solve: %d messages, %d payload bytes (mean %d B), %d rounds, %d sweeps\n",
		msgs, bytes, size, res.Rounds, res.Sweeps)
	return nil
}
