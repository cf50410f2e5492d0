package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"gtlb/internal/noncoop"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// The §4.3 NASH protocol runs m user nodes in a logical ring plus one
// state node ("the run queues"): when a user receives the token it
// obtains the computers' available processing rates from the state node
// (the paper's "statistical estimation of the run queue length"),
// computes its BEST-REPLY, publishes the new strategy, adds |ΔD_j| to
// the token's norm, and forwards the token. User 0 closes each round:
// when the accumulated norm falls to Eps it circulates STOP.
//
// The runtime is hardened against the faults ChaosNetwork injects:
//
//   - the token carries an (Epoch, Hops) pair, so duplicated or stale
//     tokens are fenced off instead of spawning ghost rounds;
//   - user 0 runs a token-loss watchdog: when the token fails to return
//     within the watchdog interval it probes the other users with
//     pings, ejects the silent ones from the ring (zeroing their
//     strategy at the state node), and regenerates the token from the
//     state node's checkpoint profile — the survivors converge to the
//     equilibrium of the reduced system;
//   - queries, strategy publishes and ejections are acknowledged by the
//     state node and retried with bounded exponential backoff;
//   - the driver enforces an overall deadline, returning ErrStalled
//     (with the latest checkpoint profile) instead of hanging.

// Message kinds used by the NASH ring protocol.
const (
	kindToken    = "nash.token"    // the circulating (norm, iteration) token
	kindQuery    = "nash.query"    // user → state: request available rates
	kindRates    = "nash.rates"    // state → user: available rates
	kindStrategy = "nash.strategy" // user → state: publish new strategy
	kindStop     = "nash.stop"     // user 0 → ring: equilibrium reached
	kindPing     = "nash.ping"     // user 0 → user: liveness probe
	kindPong     = "nash.pong"     // user → user 0: probe answer
	kindEject    = "nash.eject"    // user 0 → state: remove a dead user
	kindAck      = "nash.ack"      // state → user: strategy/eject applied
)

type tokenPayload struct {
	Iteration int
	Norm      float64
	Epoch     int    // bumped by every watchdog regeneration
	Hops      int    // forwards since (re)generation; dedup key with Epoch
	Ejected   []bool // per-user ejection mask carried around the ring
}

type queryPayload struct{ User, Seq int }

type ratesPayload struct {
	Avail []float64
	Seq   int
}

type strategyPayload struct {
	User int
	S    []float64
	Seq  int
}

type pingPayload struct{ Seq int }

type ejectPayload struct{ User, Seq int }

type ackPayload struct{ Seq int }

// ErrStalled is returned when the protocol makes no progress within the
// driver deadline (e.g. user 0 itself crashed, so no watchdog can
// regenerate the token). The result still carries the latest checkpoint
// profile, so the computation can resume via RunNashRingFrom.
var ErrStalled = errors.New("dist: protocol stalled")

// errStopped aborts an in-flight request when a STOP arrives.
var errStopped = errors.New("dist: stop received")

// NashRingResult is the outcome of a distributed NASH run.
type NashRingResult struct {
	Profile    noncoop.Profile
	Iterations int
	// Ejected lists users (ascending) removed from the ring by the
	// failure detector; their strategy rows in Profile are zero and the
	// survivors' equilibrium is that of the system without them.
	Ejected []int
}

// NashOptions tunes the fault-tolerant ring runtime. The zero value
// gets production-safe defaults; RunNashRing uses them.
type NashOptions struct {
	// Watchdog is user 0's token-loss timeout: how long the token may
	// stay away before probing and regeneration (default 2s). It must
	// comfortably exceed one full ring round.
	Watchdog time.Duration
	// ProbeTimeout is the per-attempt wait for a pong, a rates reply or
	// a state ack (default 150ms).
	ProbeTimeout time.Duration
	// MaxAttempts bounds retries per request (default 3).
	MaxAttempts int
	// Deadline bounds the whole run; past it the driver returns
	// ErrStalled with the latest checkpoint (default 60s).
	Deadline time.Duration
	// Seed drives the retry-jitter streams (one split per node).
	Seed uint64
	// Observer, when non-nil, receives nash.* protocol events:
	// fault/retry counts (timeout, retry, ejected, token.regenerated,
	// token.stale — the historical Counters keys), one NashSend per
	// token forward and one NashRound per completed ring round carrying
	// the round's norm. Events from the ring's goroutines interleave
	// nondeterministically; their counts are schedule-deterministic.
	Observer obs.Observer
}

func (o NashOptions) withDefaults() NashOptions {
	if o.Watchdog <= 0 {
		o.Watchdog = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 150 * time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Deadline <= 0 {
		o.Deadline = 60 * time.Second
	}
	return o
}

// stateNode serializes access to the evolving strategy profile. It
// stands in for the observable run-queue state of the real system.
type stateNode struct {
	conn    Conn
	sys     noncoop.System
	prof    noncoop.Profile
	ejected []bool
	pubSeq  []int // per user, the Seq of the last applied strategy
}

func (st *stateNode) run() {
	for {
		m, err := st.conn.Recv()
		if err != nil {
			return
		}
		switch m.Kind {
		case kindQuery:
			var q queryPayload
			if m.Decode(&q) != nil {
				continue
			}
			reply := Message{To: m.From, Kind: kindRates}
			if reply.Encode(ratesPayload{Avail: st.sys.Available(st.prof, q.User), Seq: q.Seq}) != nil {
				continue
			}
			_ = st.conn.Send(reply) // a lost reply is retried by the querying user
		case kindStrategy:
			var s strategyPayload
			if m.Decode(&s) != nil {
				continue
			}
			// A user's request Seq only grows, so a publish with an older
			// Seq is a delayed or duplicated copy: applying it would
			// overwrite the newer strategy, and after the last round
			// nothing would repair the final profile.
			if s.User >= 0 && s.User < len(st.prof.S) && !st.ejected[s.User] && s.Seq > st.pubSeq[s.User] {
				st.prof.S[s.User] = s.S
				st.pubSeq[s.User] = s.Seq
			}
			st.ack(m.From, s.Seq)
		case kindEject:
			var e ejectPayload
			if m.Decode(&e) != nil {
				continue
			}
			if e.User >= 0 && e.User < len(st.prof.S) && !st.ejected[e.User] {
				st.ejected[e.User] = true
				for i := range st.prof.S[e.User] {
					st.prof.S[e.User][i] = 0
				}
			}
			st.ack(m.From, e.Seq)
		case kindStop:
			return
		}
	}
}

// ack confirms a strategy publish or an ejection; requesters retry
// until they see the echoed sequence number.
func (st *stateNode) ack(to string, seq int) {
	reply := Message{To: to, Kind: kindAck}
	if reply.Encode(ackPayload{Seq: seq}) != nil {
		return
	}
	_ = st.conn.Send(reply) // a lost ack is retried by the requester
}

// userNode is one selfish user executing the protocol.
type userNode struct {
	conn Conn
	sys  noncoop.System
	id   int
	m    int // ring size
	eps  float64
	max  int

	watchdog time.Duration // > 0 only at user 0
	probeTO  time.Duration
	attempts int
	rng      *queueing.RNG
	obs      obs.Observer

	prevTime  float64
	seq       int
	lastEpoch int // token fencing; starts at -1
	lastHops  int
	epoch     int // user 0: highest token epoch seen or created
	curIter   int // user 0: iteration of the last forwarded token
	ejected   []bool

	result *NashRingResult
	resMu  *sync.Mutex
	errCh  chan<- error
}

func userName(j int) string { return fmt.Sprintf("user-%d", j) }

// next returns the successor in ring order, skipping ejected users; a
// fully ejected ring degenerates to self-forwarding.
func (u *userNode) next() string {
	for k := 1; k < u.m; k++ {
		j := (u.id + k) % u.m
		if !u.ejected[j] {
			return userName(j)
		}
	}
	return userName(u.id)
}

func (u *userNode) run() {
	for {
		m, err := u.conn.RecvTimeout(u.watchdog) // non-positive (non-0 users): block
		if err != nil {
			if errors.Is(err, ErrTimeout) && u.id == 0 {
				// Token-loss watchdog: probe, eject, regenerate.
				obs.Count(u.obs, obs.NashTokenRegenerated)
				if !u.regenerate() {
					return
				}
				continue
			}
			return // closed or crashed: the node goes silent
		}
		switch m.Kind {
		case kindStop:
			// Propagate once around the ring and quit.
			if u.next() != userName(u.id) && u.id != u.m-1 {
				stop := Message{To: u.next(), Kind: kindStop}
				_ = u.conn.Send(stop) // best-effort shutdown signal; the run is already ending
			}
			return
		case kindPing:
			u.pong(m)
		case kindToken:
			var tok tokenPayload
			if err := m.Decode(&tok); err != nil {
				u.fail(err)
				return
			}
			if tok.Epoch < u.lastEpoch || (tok.Epoch == u.lastEpoch && tok.Hops <= u.lastHops) {
				obs.Count(u.obs, obs.NashTokenStale) // duplicate or superseded token
				continue
			}
			u.lastEpoch, u.lastHops = tok.Epoch, tok.Hops
			if len(tok.Ejected) == u.m {
				u.ejected = tok.Ejected
			}
			if u.id == 0 && tok.Epoch > u.epoch {
				u.epoch = tok.Epoch
			}
			if u.ejected[u.id] {
				continue // we were ejected while the token was in flight
			}
			if u.id == 0 {
				tok.Iteration++
				if tok.Iteration > 1 {
					// The previous round is complete: its norm is on
					// the returning token.
					obs.Emit(u.obs, obs.Event{Kind: obs.NashRound, Time: float64(tok.Iteration - 1), V: tok.Norm, Node: userName(0)})
				}
				if tok.Iteration > 1 && tok.Norm <= u.eps {
					u.finish(tok.Iteration - 1)
					return
				}
				if tok.Iteration > u.max {
					u.fail(fmt.Errorf("dist: NASH ring exceeded %d iterations (norm=%g)", u.max, tok.Norm))
					return
				}
				// A token user 0 just created (Hops 0) keeps its norm for
				// this first round: after a regeneration the old token
				// may only have been slow, and a user that plays both
				// back to back adds a near-zero change, so this round's
				// norm could fall under Eps early. By the next round
				// every live user has seen the new epoch and fences the
				// old token.
				if tok.Hops > 0 {
					tok.Norm = 0
				}
				u.curIter = tok.Iteration
			}
			if err := u.bestReply(&tok); err != nil {
				if errors.Is(err, errStopped) {
					if u.next() != userName(u.id) && u.id != u.m-1 {
						stop := Message{To: u.next(), Kind: kindStop}
						_ = u.conn.Send(stop) // best-effort shutdown signal; the run is already ending
					}
					return
				}
				u.fail(err)
				return
			}
			tok.Hops++
			tok.Ejected = u.ejected
			fwd := Message{To: u.next(), Kind: kindToken}
			if err := fwd.Encode(&tok); err != nil {
				u.fail(err)
				return
			}
			if err := u.conn.Send(fwd); err != nil {
				u.fail(err)
				return
			}
			obs.Emit(u.obs, obs.Event{Kind: obs.NashSend, A: int32(u.id), Node: userName(u.id)})
		default:
			// Stale rates/acks/pongs from completed retries; drop.
		}
	}
}

// pong answers a liveness probe.
func (u *userNode) pong(m Message) {
	var p pingPayload
	if m.Decode(&p) != nil {
		return
	}
	reply := Message{To: m.From, Kind: kindPong}
	if reply.Encode(pingPayload{Seq: p.Seq}) != nil {
		return
	}
	_ = u.conn.Send(reply) // best-effort: the prober retries
}

// replySeq extracts the echoed sequence number of a reply message, -1
// if it cannot be decoded.
func replySeq(m Message) int {
	switch m.Kind {
	case kindRates:
		var p ratesPayload
		if m.Decode(&p) == nil {
			return p.Seq
		}
	case kindPong:
		var p pingPayload
		if m.Decode(&p) == nil {
			return p.Seq
		}
	case kindAck:
		var p ackPayload
		if m.Decode(&p) == nil {
			return p.Seq
		}
	}
	return -1
}

// request sends kind to a peer and waits for a replyKind echoing the
// same sequence number, retrying with bounded exponential backoff and
// seeded jitter. Pings arriving while waiting are answered, stale
// traffic is dropped, and a STOP aborts with errStopped. Exhausted
// attempts return an error wrapping ErrTimeout.
func (u *userNode) request(to, kind string, payload func(seq int) any, replyKind string) (Message, error) {
	var zero Message
	for a := 0; a < u.attempts; a++ {
		u.seq++
		seq := u.seq
		m := Message{To: to, Kind: kind}
		if err := m.Encode(payload(seq)); err != nil {
			return zero, err
		}
		if err := u.conn.Send(m); err != nil {
			return zero, err
		}
		wait := backoffDelay(u.probeTO, 4*u.probeTO, a, u.rng)
		for {
			r, err := u.conn.RecvTimeout(wait)
			if err != nil {
				if errors.Is(err, ErrTimeout) {
					obs.Count(u.obs, obs.NashTimeout)
					if a < u.attempts-1 {
						obs.Count(u.obs, obs.NashRetry)
					}
					break
				}
				return zero, err
			}
			switch r.Kind {
			case replyKind:
				if replySeq(r) == seq {
					return r, nil
				}
			case kindPing:
				u.pong(r)
			case kindStop:
				return zero, errStopped
			default:
				// Stale traffic (old rates, dup tokens superseded by the
				// regeneration fence); drop.
			}
		}
	}
	return zero, fmt.Errorf("dist: user %d: no %s from %s after %d attempts: %w",
		u.id, replyKind, to, u.attempts, ErrTimeout)
}

// probe reports whether user j answers a ping within the retry budget.
func (u *userNode) probe(j int) (bool, error) {
	_, err := u.request(userName(j), kindPing, func(seq int) any { return pingPayload{Seq: seq} }, kindPong)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrTimeout) {
		return false, nil
	}
	return false, err
}

// regenerate is user 0's watchdog action after a token loss: probe the
// ring, eject silent members (zeroing their strategy at the state
// node), and re-inject a fresh-epoch token that resumes from the state
// node's checkpoint profile. Returns false when the node must exit.
func (u *userNode) regenerate() bool {
	for j := 0; j < u.m; j++ {
		if j == u.id || u.ejected[j] {
			continue
		}
		alive, err := u.probe(j)
		if err != nil {
			if errors.Is(err, errStopped) {
				return false
			}
			return false // transport gone; the driver deadline reports
		}
		if alive {
			continue
		}
		u.ejected[j] = true
		obs.Count(u.obs, obs.NashEjected)
		_, err = u.request("state", kindEject, func(seq int) any { return ejectPayload{User: j, Seq: seq} }, kindAck)
		if err != nil {
			if !errors.Is(err, errStopped) {
				u.fail(err)
			}
			return false
		}
	}
	// Regenerate the token from the state node's checkpoint: published
	// strategies live in the state node, so the new round resumes where
	// the ring left off instead of restarting the protocol.
	u.epoch++
	tok := tokenPayload{
		Iteration: u.curIter - 1,   // redo the interrupted round
		Norm:      math.MaxFloat64, // incomplete round: never passes the stop test
		Epoch:     u.epoch,
		Ejected:   u.ejected,
	}
	fwd := Message{To: userName(u.id), Kind: kindToken}
	if err := fwd.Encode(&tok); err != nil {
		u.fail(err)
		return false
	}
	if err := u.conn.Send(fwd); err != nil {
		u.fail(err)
		return false
	}
	return true
}

// bestReply performs one protocol step: query, compute, publish (all
// acknowledged and retried), accumulate the norm contribution.
func (u *userNode) bestReply(tok *tokenPayload) error {
	r, err := u.request("state", kindQuery, func(seq int) any { return queryPayload{User: u.id, Seq: seq} }, kindRates)
	if err != nil {
		return err
	}
	var rates ratesPayload
	if err := r.Decode(&rates); err != nil {
		return err
	}
	s, err := noncoop.BestReply(rates.Avail, u.sys.Phi[u.id])
	if err != nil {
		return err
	}
	_, err = u.request("state", kindStrategy, func(seq int) any { return strategyPayload{User: u.id, S: s, Seq: seq} }, kindAck)
	if err != nil {
		return err
	}
	t := noncoop.BestReplyTime(rates.Avail, s, u.sys.Phi[u.id])
	d := math.Abs(t - u.prevTime)
	if math.IsInf(d, 1) || math.IsNaN(d) {
		d = math.MaxFloat64 / float64(u.m)
	}
	// Saturate: several users hitting the fallback in one round must
	// not overflow the accumulated norm to +Inf.
	if sum := tok.Norm + d; math.IsInf(sum, 1) {
		tok.Norm = math.MaxFloat64
	} else {
		tok.Norm = sum
	}
	u.prevTime = t
	return nil
}

func (u *userNode) finish(iter int) {
	u.resMu.Lock()
	u.result.Iterations = iter
	u.resMu.Unlock()
	stop := Message{To: "state", Kind: kindStop}
	_ = u.conn.Send(stop) // best-effort shutdown signal; the run is already ending
	if u.next() != userName(u.id) {
		ring := Message{To: u.next(), Kind: kindStop}
		_ = u.conn.Send(ring) // best-effort shutdown signal; the run is already ending
	}
	u.errCh <- nil
}

func (u *userNode) fail(err error) {
	// A node whose own endpoint crashed or closed dies silently, like
	// the dead process it models: the survivors' failure detector (user
	// 0's watchdog) or the driver deadline handles the fallout. Every
	// other failure is a protocol error the driver must report.
	if errors.Is(err, ErrCrashed) || errors.Is(err, ErrClosed) {
		return
	}
	u.errCh <- err
}

// RunNashRing executes the §4.3 NASH protocol over the given network
// with default runtime options and returns the equilibrium profile.
// Each user starts from the NASH_P proportional initialization; eps is
// the acceptance tolerance on the per-round norm and maxIter bounds the
// rounds.
func RunNashRing(netw Network, sys noncoop.System, eps float64, maxIter int) (NashRingResult, error) {
	return RunNashRingWith(netw, sys, eps, maxIter, NashOptions{})
}

// RunNashRingWith is RunNashRing with explicit fault-tolerance options.
func RunNashRingWith(netw Network, sys noncoop.System, eps float64, maxIter int, opts NashOptions) (NashRingResult, error) {
	if err := sys.Validate(); err != nil {
		return NashRingResult{}, err
	}
	m := sys.NumUsers()
	prof := noncoop.NewProfile(m, sys.NumComputers())
	total := sys.TotalMu()
	for j := 0; j < m; j++ {
		for i, mu := range sys.Mu {
			prof.S[j][i] = mu / total
		}
	}
	return RunNashRingFromWith(netw, sys, prof, eps, maxIter, opts)
}

// RunNashRingFrom runs the NASH ring protocol starting from a checkpoint
// profile — typically the Profile of a NashRingResult whose run was cut
// short (node crash, iteration budget). The state node is re-seeded with
// the checkpoint and the users resume best replies from there, so a
// restarted computation converges to the same equilibrium without
// redoing the completed rounds. Even on error the returned result
// carries the latest profile, usable as the next checkpoint.
func RunNashRingFrom(netw Network, sys noncoop.System, initial noncoop.Profile, eps float64, maxIter int) (NashRingResult, error) {
	return RunNashRingFromWith(netw, sys, initial, eps, maxIter, NashOptions{})
}

// RunNashRingFromWith is RunNashRingFrom with explicit fault-tolerance
// options.
func RunNashRingFromWith(netw Network, sys noncoop.System, initial noncoop.Profile, eps float64, maxIter int, opts NashOptions) (NashRingResult, error) {
	if err := sys.Validate(); err != nil {
		return NashRingResult{}, err
	}
	if err := sys.ValidateProfile(initial); err != nil {
		return NashRingResult{}, fmt.Errorf("dist: checkpoint profile invalid: %w", err)
	}
	if eps <= 0 {
		eps = 1e-9
	}
	if maxIter <= 0 {
		maxIter = 10_000
	}
	opts = opts.withDefaults()
	m := sys.NumUsers()
	prof := initial.Clone()

	stConn, err := netw.Join("state")
	if err != nil {
		return NashRingResult{}, err
	}
	st := &stateNode{conn: stConn, sys: sys, prof: prof, ejected: make([]bool, m), pubSeq: make([]int, m)}

	result := &NashRingResult{}
	var resMu sync.Mutex
	errCh := make(chan error, m)
	conns := make([]Conn, m)
	var wg sync.WaitGroup
	var stopOnce sync.Once
	// teardown is idempotent and joins every protocol goroutine: the
	// extra STOP makes the state node exit even when a user failed
	// mid-round; it is best-effort (the state node may already be gone,
	// or the message may be chaos-dropped), so the conn closes guarantee
	// termination regardless. Deferred for the early error returns and
	// called explicitly before the results are read — the wg.Wait is the
	// happens-before edge that makes st.prof and st.ejected safe to
	// read.
	teardown := func() {
		stopOnce.Do(func() {
			if conns[0] != nil {
				// Best-effort STOP; the conn closes below guarantee
				// termination even if it is lost.
				_ = conns[0].Send(Message{To: "state", Kind: kindStop})
			}
			for _, c := range conns {
				if c != nil {
					_ = c.Close() // teardown; unblocks every user node
				}
			}
			_ = stConn.Close() // teardown; unblocks the state node even if the STOP was lost
			wg.Wait()
		})
	}
	defer teardown()
	for j := 0; j < m; j++ {
		c, err := netw.Join(userName(j))
		if err != nil {
			return NashRingResult{}, err
		}
		conns[j] = c
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		st.run()
	}()
	for j := 0; j < m; j++ {
		u := &userNode{
			conn: conns[j], sys: sys, id: j, m: m,
			eps: eps, max: maxIter,
			probeTO:   opts.ProbeTimeout,
			attempts:  opts.MaxAttempts,
			rng:       queueing.NewRNG(opts.Seed).Split(uint64(j) + 1),
			obs:       opts.Observer,
			prevTime:  sys.UserTime(prof, j),
			lastEpoch: -1, lastHops: -1,
			ejected: make([]bool, m),
			result:  result, resMu: &resMu, errCh: errCh,
		}
		if j == 0 {
			u.watchdog = opts.Watchdog
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			u.run()
		}()
	}

	// Inject the token at user 0.
	tok := Message{To: userName(0), Kind: kindToken}
	if err := tok.Encode(tokenPayload{Ejected: make([]bool, m)}); err != nil {
		return NashRingResult{}, err
	}
	if err := conns[m-1].Send(tok); err != nil {
		return NashRingResult{}, err
	}

	// Wait for user 0 to finish (or any user to fail), bounded by the
	// overall deadline: if even the watchdog cannot make progress (user
	// 0 crashed), the run ends with ErrStalled instead of hanging.
	var runErr error
	deadline := time.NewTimer(opts.Deadline)
	defer deadline.Stop()
	select {
	case runErr = <-errCh:
	case <-deadline.C:
		runErr = fmt.Errorf("dist: no progress within %v: %w", opts.Deadline, ErrStalled)
	}
	teardown()
	resMu.Lock()
	defer resMu.Unlock()
	// Hand back the latest profile even on failure: it is the
	// checkpoint a restarted run resumes from (RunNashRingFrom).
	result.Profile = st.prof
	result.Ejected = nil
	for j, e := range st.ejected {
		if e {
			result.Ejected = append(result.Ejected, j)
		}
	}
	if runErr != nil {
		return *result, runErr
	}
	return *result, nil
}
