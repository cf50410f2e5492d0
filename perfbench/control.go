package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"gtlb/internal/core"
	"gtlb/internal/ctrl"
	"gtlb/internal/dist"
	"gtlb/internal/game"
)

// The control workload feeds a seeded lbgen-style estimate stream into
// an lbd daemon over the in-memory transport, in a closed loop: the
// feeder sends the next estimate only after the previous decision
// arrives. The deadband and jitter are chosen so that both holds and
// re-solves take large shares of the decisions. The daemon runs without
// a checkpoint path: SaveCheckpoint fsyncs, and on a disk-backed
// checkout the fsync, not ctrl, would set the decision time (see
// README.md); checkpoint cost is measured per layer instead.
const (
	ctrlDeadband = 0.05
	ctrlJitter   = 0.03
	// ctrlProfileSteps is the fixed stream prefix the per-layer profile
	// replays, so its counts repeat exactly for a seed.
	ctrlProfileSteps = 4000
	// ctrlWait bounds the wait for one decision; past it the decision
	// counts as missing.
	ctrlWait = 5 * time.Second
	// ctrlBlock is how many decisions one block of the run holds:
	// about as long as one sim call, short enough to fall inside one of
	// the host's fast phases (README.md).
	ctrlBlock = 10_000
)

func ctrlConfig() ctrl.Config { return ctrl.Config{Deadband: ctrlDeadband} }

// genConfig is the stream: 8 computers, 8 users, a five-segment
// diurnal profile, jitter, and a crash, restore and join early on.
func genConfig(seed uint64) ctrl.GenConfig {
	return ctrl.GenConfig{
		Seed:        splitmix(seed),
		Mu:          []float64{40, 40, 30, 30, 20, 20, 10, 10},
		Users:       []float64{25, 20, 18, 15, 12, 10, 6, 4},
		Multipliers: []float64{0.6, 1.0, 1.5, 1.1, 0.7},
		Segment:     25,
		Jitter:      ctrlJitter,
		Events: []ctrl.ChurnEvent{
			{Step: 150, Kind: ctrl.ChurnCrash, Computer: 0},
			{Step: 300, Kind: ctrl.ChurnRestore, Computer: 0},
			{Step: 450, Kind: ctrl.ChurnJoin, Mu: 35},
		},
		Source: "perfbench",
	}
}

// loop is one daemon with its feeder, and the in-process replay of the
// same stream its decisions are checked against.
type loop struct {
	gen, replayGen *ctrl.Generator
	replay         *ctrl.Controller
	feeder         dist.Conn
	daemon         *ctrl.Daemon
	decisions      chan ctrl.Decision

	hold, realloc, shed int // decisions so far, by outcome
}

func newLoop(seed uint64) (*loop, error) {
	gen, err := ctrl.NewGenerator(genConfig(seed))
	if err != nil {
		return nil, err
	}
	replayGen, err := ctrl.NewGenerator(genConfig(seed))
	if err != nil {
		return nil, err
	}
	replay, err := ctrl.New(ctrlConfig())
	if err != nil {
		return nil, err
	}
	netw := dist.NewMemNetwork()
	feeder, err := netw.Join("lbgen")
	if err != nil {
		return nil, err
	}
	conn, err := netw.Join("lbd")
	if err != nil {
		return nil, errors.Join(err, feeder.Close())
	}
	l := &loop{gen: gen, replayGen: replayGen, replay: replay, feeder: feeder,
		decisions: make(chan ctrl.Decision, 1)} // the loop is closed: one decision in flight
	l.daemon, err = ctrl.NewDaemon(conn, ctrl.DaemonConfig{
		Controller: ctrlConfig(),
		OnDecision: func(_ ctrl.Estimate, d ctrl.Decision) { l.decisions <- d },
	})
	if err != nil {
		return nil, errors.Join(err, feeder.Close(), conn.Close())
	}
	l.daemon.Start()
	return l, nil
}

func (l *loop) stop() error { return errors.Join(l.daemon.Stop(), l.feeder.Close()) }

// verify checks one daemon decision against the replay and counts it.
func (l *loop) verify(r *run, got ctrl.Decision) bool {
	est, _ := l.replayGen.Next()
	want, err := l.replay.Ingest(est)
	if err != nil || !reflect.DeepEqual(got, want) {
		r.fail("decision %d: daemon %v, in-process replay %v (%v)", est.Seq, got, want, err)
		return false
	}
	switch got.Action {
	case ctrl.ActionHold:
		l.hold++
	case ctrl.ActionRealloc:
		l.realloc++
	}
	if got.Shed > 0 {
		l.shed++
	}
	return true
}

// setupControl starts the daemon setupReps times, each from a collected
// heap, and keeps the last; stopping the others, which waits out the
// daemon's poll, is untimed. It also sets the block size both the plain
// and the traced run use.
func setupControl(r *run) (*loop, error) {
	r.block = ctrlBlock
	var l *loop
	for i := 0; i < setupReps; i++ {
		if l != nil {
			if err := l.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if l, err = newLoop(r.seed); err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start))
	}
	return l, nil
}

// feed runs the closed loop until done reports true for the number of
// decisions made, checking every decision outside the timed call. With
// a span log it sums each decision's and each Send's time in counters.
// A send error, a missing decision or a wrong one ends the loop.
func feed(r *run, l *loop, done func(n int) bool, log *spanLog) error {
	watchdog := time.NewTimer(ctrlWait)
	defer watchdog.Stop()
	var decision, send *counter
	if log != nil {
		decision, send = log.counter("ctrl", "decision"), log.counter("dist", "Send")
	}
	for n := 0; !done(n); n++ {
		est, _ := l.gen.Next() // the stream is unbounded
		watchdog.Reset(ctrlWait)
		var dec ctrl.Decision
		err := r.call(func() (float64, error) {
			start := time.Now()
			m, err := ctrl.EncodeMessage("lbd", est)
			if err != nil {
				return 0, err
			}
			m.From = "lbgen"
			sent := time.Now()
			if err := l.feeder.Send(m); err != nil {
				return 0, err
			}
			if log != nil {
				send.Total += time.Since(sent)
				send.Calls++
			}
			select {
			case dec = <-l.decisions:
			case <-watchdog.C:
				return 0, fmt.Errorf("no decision for estimate %d", est.Seq)
			}
			if log != nil {
				decision.Total += time.Since(start)
				decision.Calls++
			}
			return 1, nil
		})
		if err != nil {
			return err
		}
		if !l.verify(r, dec) {
			return fmt.Errorf("decision %d is wrong", est.Seq)
		}
	}
	return nil
}

// checkControl stops the daemon and checks that its final state,
// written as a checkpoint in the checkout and loaded back, equals the
// replay's checkpoint.
func checkControl(r *run, l *loop) {
	if err := l.stop(); err != nil {
		r.fail("stopping the daemon: %v", err)
	}
	dir, err := ckptDir(0)
	if err != nil {
		r.fail("checkpoint directory: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "checkpoint.json")
	if err := ctrl.SaveCheckpoint(path, l.daemon.Checkpoint()); err != nil {
		r.fail("saving the final checkpoint: %v", err)
		return
	}
	ck, ok, err := ctrl.LoadCheckpoint(path)
	if err != nil || !ok || !reflect.DeepEqual(ck, l.replay.Checkpoint()) {
		r.fail("final checkpoint (found %v, %v) differs from the replay's", ok, err)
		return
	}
	fmt.Printf("check: %d daemon decisions equal the in-process replay; the final checkpoint (epoch %d) loads back equal\n",
		l.hold+l.realloc, ck.Epoch)
}

// ckptDir makes a fresh checkpoint directory in the checkout.
func ckptDir(i int) (string, error) {
	dir := filepath.Join(runDir, "ckpt-"+strconv.Itoa(os.Getpid())+"-"+strconv.Itoa(i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func runControl(r *run) error {
	l, err := setupControl(r)
	if err != nil {
		return err
	}
	start := time.Now()
	_ = feed(r, l, func(n int) bool { return n > 0 && time.Since(start) >= r.budget }, nil) // failures are counted
	checkControl(r, l)
	r.endToEnd()
	b := r.best()
	// The tail is printed, not reported: over ten runs its spread is
	// wider than any bound the benchmark may set (README.md).
	fmt.Printf("decision_p50_us %.6g decision_p99_us %.6g (fastest block of %d); %d decisions: %d hold, %d realloc, %d shed\n",
		1e3*b.p50, 1e3*b.p99, r.block, l.hold+l.realloc, l.hold, l.realloc, l.shed)
	return nil
}

// traceControl alternates blocks of untraced decisions with traced
// ones: a span around each block and counters on every decision and
// every Send.
func traceControl(r *run) error {
	l, err := setupControl(r)
	if err != nil {
		return err
	}
	spans := newSpanLog()
	block := func(n int) bool { return n >= ctrlBlock }
	var hold, realloc int
	plain, instr := r.alternate(func(int) error { return feed(r, l, block, nil) }, func(int) error {
		h, re := l.hold, l.realloc
		err := spans.timeSpan("ctrl", "block", func() error { return feed(r, l, block, spans) })
		hold += l.hold - h
		realloc += l.realloc - re
		return err
	})
	checkControl(r, l)

	lay, err := measureLayers(r)
	if err != nil {
		return err
	}
	n := instr.work
	attribution(r.name, "decision", instr.nsPer(), []share{
		{"ctrl", "estimate codec (encode + decode)", lay.codecNs, 1},
		{"dist", "mem hop (estimate to daemon)", lay.memHopNs, 1},
		{"ctrl", "Controller.Ingest, hold", lay.ingestHoldNs, float64(hold) / n},
		{"ctrl", "Controller.Ingest, re-solve", lay.ingestReallocNs, float64(realloc) / n},
	})
	return r.finishTrace(spans, instr, plain, "decision")
}

// measureCtrl profiles ctrl and game.WarmCOOP on the control stream's
// first ctrlProfileSteps estimates.
func (l *layers) measureCtrl(r *run) error {
	gen, err := ctrl.NewGenerator(genConfig(r.seed))
	if err != nil {
		return err
	}
	c, err := ctrl.New(ctrlConfig())
	if err != nil {
		return err
	}
	var holdNs, reallocNs, warmNs []float64
	var hold, realloc, shed int
	var prev core.Allocation
	var ests []ctrl.Estimate
	for i := 0; i < ctrlProfileSteps; i++ {
		est, _ := gen.Next()
		ests = append(ests, est)
		start := time.Now()
		d, err := c.Ingest(est)
		ns := float64(time.Since(start))
		if err != nil {
			return err
		}
		switch d.Action {
		case ctrl.ActionHold:
			hold++
			holdNs = append(holdNs, ns)
		case ctrl.ActionRealloc:
			realloc++
			reallocNs = append(reallocNs, ns)
		}
		if d.Shed > 0 {
			shed++
		}
		// The warm re-solve of the admitted demand on the up computers,
		// started from the previous estimate's solution.
		if sys, ok := upSystem(est, d.Admitted); ok {
			start := time.Now()
			a, _, err := game.WarmCOOP(sys, prev)
			warmNs = append(warmNs, float64(time.Since(start)))
			if err != nil {
				return err
			}
			prev = a
		}
	}

	dir, err := ckptDir(setupReps)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "checkpoint.json")
	ck := c.Checkpoint()
	ckptNs := make([]float64, 200)
	for i := range ckptNs {
		start := time.Now()
		if err := ctrl.SaveCheckpoint(path, ck); err != nil {
			return err
		}
		ckptNs[i] = float64(time.Since(start))
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}

	var codecErr error
	l.codecNs = perCall(20_000, func(i int) {
		m, err := ctrl.EncodeMessage("lbd", ests[i%len(ests)])
		if err == nil {
			_, err = ctrl.DecodeEstimate(m)
		}
		if err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return codecErr
	}
	m, err := ctrl.EncodeMessage("lbd", ests[len(ests)-1])
	if err != nil {
		return err
	}
	if l.memHopNs, err = pingPong(dist.NewMemNetwork(), len(m.Data), 20_000); err != nil {
		return fmt.Errorf("mem ping-pong: %w", err)
	}

	l.ingestHoldNs, l.ingestReallocNs, l.checkpointNs = median(holdNs), median(reallocNs), median(ckptNs)
	r.set("ctrl.hold", "count", float64(hold))
	r.set("ctrl.realloc", "count", float64(realloc))
	r.set("ctrl.shed", "count", float64(shed))
	r.set("ctrl.ingest_hold_us", "us", l.ingestHoldNs/1e3)
	r.set("ctrl.ingest_realloc_us", "us", l.ingestReallocNs/1e3)
	r.set("game.warmcoop_us", "us", median(warmNs)/1e3)
	r.set("ctrl.checkpoint_us", "us", l.checkpointNs/1e3)
	r.set("ctrl.checkpoint_bytes", "B", float64(st.Size()))
	r.set("ctrl.codec_us", "us", l.codecNs/1e3)
	r.set("dist.mem_hop_us", "us", l.memHopNs/1e3)
	fmt.Printf("ctrl on %d estimates: %d hold, %d realloc (%.1f%% useful re-solves), %d shed\n",
		ctrlProfileSteps, hold, realloc, 100*float64(realloc)/ctrlProfileSteps, shed)
	return nil
}

// upSystem is the COOP system of an estimate's up computers at the
// admitted demand.
func upSystem(est ctrl.Estimate, admitted float64) (core.System, bool) {
	var mu []float64
	for _, m := range est.Mu {
		if m > 0 {
			mu = append(mu, m)
		}
	}
	sys, err := core.NewSystem(mu, admitted)
	return sys, err == nil && admitted > 0
}
