package ctrl

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gtlb/internal/dist"
)

// feedDaemon pushes a generator's full stream into the daemon's mailbox
// over the given connection.
func feedDaemon(t *testing.T, conn dist.Conn, g *Generator) int {
	t.Helper()
	n := 0
	for {
		e, ok := g.Next()
		if !ok {
			return n
		}
		m, err := EncodeMessage("lbd", e)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		n++
	}
}

// TestDaemonClosedLoopSoak runs the whole closed loop over the mem
// transport: generator → daemon, scripted crash + join mid-stream, a
// graceful Stop that drains the mailbox, and the Φ-feasibility
// invariant checked at every committed epoch. Run with -race this also
// vouches for the daemon's locking.
func TestDaemonClosedLoopSoak(t *testing.T) {
	t.Parallel()
	net := dist.NewMemNetwork()
	lbd, err := net.Join("lbd")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := net.Join("lbgen")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var decisions []Decision
	var estimates []Estimate
	d, err := NewDaemon(lbd, DaemonConfig{
		Controller:  Config{Policy: Queue, Deadband: 0.1},
		PollTimeout: 5 * time.Millisecond,
		OnDecision: func(e Estimate, dec Decision) {
			mu.Lock()
			estimates = append(estimates, e)
			decisions = append(decisions, dec)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	d.Start() // idempotent

	g, err := NewGenerator(soakGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	sent := feedDaemon(t, gen, g)
	if err := gen.Close(); err != nil {
		t.Fatal(err)
	}

	// Stop drains what is already in the mailbox before returning, so
	// every sent estimate must have been decided.
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(decisions) != sent {
		t.Fatalf("drained %d of %d estimates", len(decisions), sent)
	}
	var ejects, joins, reallocs int
	for i, dec := range decisions {
		ejects += len(dec.Ejected)
		joins += len(dec.Joined)
		if dec.Action == ActionRealloc {
			reallocs++
			if dec.Admitted > 0 && len(estimates[i].Mu) == 0 {
				t.Fatalf("decision %d admitted load with no computers", i)
			}
		}
	}
	if ejects == 0 || joins == 0 {
		t.Fatalf("scripted churn not observed: ejects=%d joins=%d", ejects, joins)
	}
	if reallocs == 0 {
		t.Fatal("no epochs committed")
	}
	if d.Epoch() != reallocs {
		t.Fatalf("daemon epoch %d != %d realloc decisions", d.Epoch(), reallocs)
	}
	// Double Stop stays safe and returns the same (nil) error.
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonKillRestartResumes is the acceptance check for daemon crash
// recovery: kill the daemon mid-stream, start a fresh one on the same
// checkpoint path, and the combined decision log matches an
// uninterrupted controller run over the same stream.
func TestDaemonKillRestartResumes(t *testing.T) {
	t.Parallel()
	ckPath := filepath.Join(t.TempDir(), "lbd.ckpt")
	cfg := Config{Policy: Queue, Deadband: 0.1}

	// Reference: uninterrupted pure-controller run.
	g, err := NewGenerator(soakGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := runStream(t, mustController(t, cfg), g)

	newDaemon := func(conn dist.Conn, sink *[]string, mu *sync.Mutex) *Daemon {
		t.Helper()
		d, err := NewDaemon(conn, DaemonConfig{
			Controller:     cfg,
			CheckpointPath: ckPath,
			PollTimeout:    5 * time.Millisecond,
			OnDecision: func(_ Estimate, dec Decision) {
				mu.Lock()
				*sink = append(*sink, dec.String())
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	var mu sync.Mutex
	var log []string

	// First daemon: half the stream, then "crash" (Stop flushes the
	// checkpoint exactly like the SIGTERM path in cmd/lbd).
	net := dist.NewMemNetwork()
	lbd1, err := net.Join("lbd")
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Join("lbgen")
	if err != nil {
		t.Fatal(err)
	}
	d1 := newDaemon(lbd1, &log, &mu)
	if _, ok := d1.ResumedFrom(); ok {
		t.Fatal("fresh daemon claims to have resumed")
	}
	d1.Start()
	g, err = NewGenerator(soakGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	cut := 60
	for i := 0; i < cut; i++ {
		e, ok := g.Next()
		if !ok {
			t.Fatal("stream too short")
		}
		m, err := EncodeMessage("lbd", e)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.Stop(); err != nil {
		t.Fatal(err)
	}

	// Second daemon on the same checkpoint path resumes at the next
	// epoch and finishes the stream.
	net2 := dist.NewMemNetwork()
	lbd2, err := net2.Join("lbd")
	if err != nil {
		t.Fatal(err)
	}
	src2, err := net2.Join("lbgen")
	if err != nil {
		t.Fatal(err)
	}
	d2 := newDaemon(lbd2, &log, &mu)
	epoch, ok := d2.ResumedFrom()
	if !ok || epoch == 0 {
		t.Fatalf("restarted daemon did not resume: epoch=%d ok=%v", epoch, ok)
	}
	d2.Start()
	feedDaemon(t, src2, g)
	if err := d2.Stop(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(log) != len(ref) {
		t.Fatalf("decision count %d != reference %d", len(log), len(ref))
	}
	for i := range ref {
		if log[i] != ref[i] {
			t.Fatalf("line %d differs across restart:\n  got  %s\n  want %s", i, log[i], ref[i])
		}
	}
}

// TestDaemonIgnoresMalformedMessages: garbage on the wire is counted
// and dropped, never fatal — the next valid estimate still commits.
func TestDaemonIgnoresMalformedMessages(t *testing.T) {
	t.Parallel()
	net := dist.NewMemNetwork()
	lbd, err := net.Join("lbd")
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Join("lbgen")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(lbd, DaemonConfig{PollTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	if err := src.Send(dist.Message{From: "lbgen", To: "lbd", Kind: EstimateKind, Data: []byte("not an estimate")}); err != nil {
		t.Fatal(err)
	}
	if err := src.Send(dist.Message{From: "lbgen", To: "lbd", Kind: "other.kind", Data: nil}); err != nil {
		t.Fatal(err)
	}
	m, err := EncodeMessage("lbd", Estimate{Seq: 1, Time: 0, Phi: []float64{10}, Mu: []float64{40}})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Send(m); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch = %d after garbage + one valid estimate", d.Epoch())
	}
}

func TestDaemonRejectsNilConn(t *testing.T) {
	t.Parallel()
	if _, err := NewDaemon(nil, DaemonConfig{}); err == nil {
		t.Fatal("nil conn accepted")
	}
}

func TestDaemonRejectsCorruptCheckpoint(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	net := dist.NewMemNetwork()
	conn, err := net.Join("lbd")
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewDaemon(conn, DaemonConfig{CheckpointPath: path})
	if err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt checkpoint misreported as missing")
	}
}
