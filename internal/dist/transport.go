// Package dist provides the simulated distributed runtime the protocols
// of Chapters 4 and 5 execute on: named nodes exchanging messages over a
// pluggable transport. Two transports are provided — an in-memory one
// built on channels (deterministic, used by tests and examples) and a
// TCP loopback one (shows the protocols running across real sockets).
//
// The two protocols implemented on top are:
//
//   - the NASH distributed load-balancing algorithm of §4.3, in which m
//     user nodes compute best replies round-robin, circulating a token
//     that accumulates the convergence norm; and
//   - the LBM bidding protocol of §5.4, in which a dispatcher collects
//     bids from computer agents, computes the optimal allocation and
//     truthful payments, and hands them back.
package dist

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Message is one unit of communication between nodes.
type Message struct {
	From string // sender node name
	To   string // recipient node name
	Kind string // protocol-defined message type
	Data []byte // encoded payload (binary codec; see codec.go)
}

// Encode serializes a payload value into the message's Data with the
// compact binary codec (one allocation). Only the codec's payload types
// (codec.go) have a wire format; any other value is an error.
func (m *Message) Encode(v any) error {
	p, ok := v.(wireEncoder)
	if !ok {
		return fmt.Errorf("dist: encode %s payload: unsupported type %T", m.Kind, v)
	}
	b := make([]byte, 0, 2+p.wireSize())
	b = append(b, codecMagic, p.wireID())
	m.Data = p.appendWire(b)
	return nil
}

// wireDecPool recycles decoder states: the *wireDec handed to the
// payload's decodeWire escapes through the interface call, so a fresh
// one per message would cost an allocation on every protocol receive.
var wireDecPool = sync.Pool{New: func() any { return new(wireDec) }}

// Decode deserializes the message's Data into v, a pointer to one of
// the codec's payload types, reusing v's slice capacity. Any other
// target, bytes of the wrong wire type, and malformed input are errors
// (never a panic).
func (m *Message) Decode(v any) error {
	p, ok := v.(wireDecoder)
	if !ok {
		return fmt.Errorf("dist: decode %s payload: unsupported target %T", m.Kind, v)
	}
	if len(m.Data) < 2 || m.Data[0] != codecMagic {
		return fmt.Errorf("dist: decode %s payload: not a binary protocol payload", m.Kind)
	}
	if m.Data[1] != p.wireID() {
		return fmt.Errorf("dist: decode %s payload: wire type %d does not match target %T", m.Kind, m.Data[1], v)
	}
	d := wireDecPool.Get().(*wireDec)
	*d = wireDec{b: m.Data, off: 2}
	p.decodeWire(d)
	if d.err == nil && d.off != len(d.b) {
		d.fail("trailing bytes")
	}
	err := d.err
	*d = wireDec{}
	wireDecPool.Put(d)
	if err != nil {
		return fmt.Errorf("dist: decode %s payload: %w", m.Kind, err)
	}
	return nil
}

// Conn is one node's endpoint on a transport.
type Conn interface {
	// Name returns the node name this endpoint joined as.
	Name() string
	// Send delivers the message to its recipient. It is safe for
	// concurrent use.
	Send(m Message) error
	// Recv blocks until a message addressed to this node arrives. It
	// returns an error once the connection is closed and drained.
	Recv() (Message, error)
	// RecvTimeout behaves like Recv but gives up after d, returning an
	// error wrapping ErrTimeout. A non-positive d means block forever.
	// Deadline-aware receives are what let the hardened protocols retry
	// or degrade instead of deadlocking on a lost message.
	RecvTimeout(d time.Duration) (Message, error)
	// Close releases the endpoint; pending Recv calls return an error.
	Close() error
}

// Network creates endpoints for named nodes.
type Network interface {
	// Join registers a node and returns its endpoint. Node names must
	// be unique on a network.
	Join(name string) (Conn, error)
}

// BatchSender is implemented by transports that can coalesce several
// outbound messages into one frame/syscall (the TCP conn writes one
// buffer, the mem conn amortizes the recipient lookups). Fault-injecting
// wrappers deliberately do not implement it, so every message still
// receives its own fault draw.
type BatchSender interface {
	// SendBatch delivers the messages in order. It stops at the first
	// send error.
	SendBatch(ms []Message) error
}

// SendAll delivers the messages through the connection's batch path
// when available, falling back to sequential Sends.
func SendAll(c Conn, ms []Message) error {
	if b, ok := c.(BatchSender); ok {
		return b.SendBatch(ms)
	}
	for _, m := range ms {
		if err := c.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// ErrClosed is returned by Recv after Close. Transport-level failures
// (broker EOF, corrupt stream) wrap both ErrClosed and the underlying
// error, so errors.Is(err, ErrClosed) still matches while the root cause
// stays diagnosable.
var ErrClosed = errors.New("dist: connection closed")

// ErrTimeout is returned (wrapped) by RecvTimeout when no message
// arrives within the deadline.
var ErrTimeout = errors.New("dist: receive timeout")

// memNetwork is the in-memory transport: a mailbox per node.
type memNetwork struct {
	mu    sync.Mutex
	boxes map[string]*mailbox
}

// mailbox is one node's message queue. The message channel is never
// closed — closure is signalled on done instead, so a Send racing with
// the recipient's Close selects the done case rather than panicking on
// a closed channel (a send/close race the race detector rightly flags).
type mailbox struct {
	ch   chan Message
	done chan struct{}
}

// NewMemNetwork returns an in-memory Network. Mailboxes are buffered so
// protocol fan-out (a dispatcher messaging n computers) cannot deadlock.
func NewMemNetwork() Network {
	return &memNetwork{boxes: make(map[string]*mailbox)}
}

func (n *memNetwork) Join(name string) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.boxes[name]; dup {
		return nil, fmt.Errorf("dist: node %q already joined", name)
	}
	box := &mailbox{ch: make(chan Message, 1024), done: make(chan struct{})}
	n.boxes[name] = box
	return &memConn{net: n, name: name, box: box}, nil
}

func (n *memNetwork) lookup(name string) (*mailbox, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	box, ok := n.boxes[name]
	return box, ok
}

func (n *memNetwork) leave(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if box, ok := n.boxes[name]; ok {
		close(box.done)
		delete(n.boxes, name)
	}
}

type memConn struct {
	net  *memNetwork
	name string
	box  *mailbox

	// timer is reused across RecvTimeout calls. A Conn is received from
	// by its owning node goroutine only (the Conn contract), so no lock
	// is needed; reusing the timer keeps the protocol hot paths free of
	// per-call timer allocations.
	timer *time.Timer

	closeOnce sync.Once
}

func (c *memConn) Name() string { return c.name }

func (c *memConn) Send(m Message) error {
	m.From = c.name
	box, ok := c.net.lookup(m.To)
	if !ok {
		return fmt.Errorf("dist: unknown node %q", m.To)
	}
	select {
	case box.ch <- m:
		return nil
	case <-box.done:
		return fmt.Errorf("dist: node %q closed", m.To)
	}
}

// SendBatch delivers a burst in order, resolving each recipient once.
func (c *memConn) SendBatch(ms []Message) error {
	for i := range ms {
		if err := c.Send(ms[i]); err != nil {
			return err
		}
	}
	return nil
}

func (c *memConn) Recv() (Message, error) {
	select {
	case m := <-c.box.ch:
		return m, nil
	default:
	}
	select {
	case m := <-c.box.ch:
		return m, nil
	case <-c.box.done:
		// Closed — but drain messages that arrived before the close, in
		// case the blocking select picked the done case over a ready
		// message (select order is randomized).
		select {
		case m := <-c.box.ch:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

func (c *memConn) RecvTimeout(d time.Duration) (Message, error) {
	if d <= 0 {
		return c.Recv()
	}
	select {
	case m := <-c.box.ch:
		return m, nil
	default:
	}
	t := c.timer
	if t == nil {
		t = time.NewTimer(d)
		c.timer = t
	} else {
		t.Reset(d)
	}
	// Stop and drain on every exit so the next Reset starts clean (the
	// module targets the pre-1.23 timer semantics).
	defer func() {
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
	}()
	select {
	case m := <-c.box.ch:
		return m, nil
	case <-c.box.done:
		// Same pre-close drain as Recv.
		select {
		case m := <-c.box.ch:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	case <-t.C:
		return Message{}, fmt.Errorf("dist: recv on %q after %v: %w", c.name, d, ErrTimeout)
	}
}

func (c *memConn) Close() error {
	c.closeOnce.Do(func() { c.net.leave(c.name) })
	return nil
}
