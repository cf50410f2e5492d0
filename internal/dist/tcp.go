package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCP frames. Every message on a TCP stream, in both directions between
// a node and the broker, is one frame:
//
//	[u32 little-endian n][uvarint len, To][uvarint len, From][uvarint len, Kind][Data]
//
// where n counts the bytes after the length word and Data is the rest
// of the frame, carried verbatim.
const (
	frameLenSize = 4
	// maxFrameSize bounds n. A reader rejects a longer header before it
	// allocates anything, so a corrupt or hostile peer cannot make it
	// reserve more than this for one message.
	maxFrameSize = 16 << 20
)

// ErrFrameTooLarge is returned (wrapped) for a frame whose length
// exceeds the frame bound: by Send before anything is written, and
// through ErrClosed by a receiver whose stream carried such a header.
var ErrFrameTooLarge = errors.New("dist: tcp frame exceeds the size bound")

// errBadFrame wraps a frame whose header fields overrun its length.
var errBadFrame = errors.New("dist: malformed tcp frame")

// appendFrame appends m as one frame to b. A frame over the bound is
// not appended.
func appendFrame(b []byte, m *Message) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = appendStr(b, m.To)
	b = appendStr(b, m.From)
	b = appendStr(b, m.Kind)
	b = append(b, m.Data...)
	n := len(b) - start - frameLenSize
	if n > maxFrameSize {
		return b[:start], fmt.Errorf("%w: %s message of %d bytes", ErrFrameTooLarge, m.Kind, n)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// readFrame reads one frame. It returns io.EOF if the stream ends
// cleanly between frames and wraps io.ErrUnexpectedEOF if it ends
// inside one.
func readFrame(r *bufio.Reader) (Message, error) {
	hdr, err := r.Peek(frameLenSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrameSize {
		return Message{}, fmt.Errorf("%w: header declares %d bytes, bound %d", ErrFrameTooLarge, n, maxFrameSize)
	}
	_, _ = r.Discard(frameLenSize) // peeked above, cannot fail
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, fmt.Errorf("dist: tcp frame body: %w", err)
	}
	d := wireDec{b: body}
	m := Message{To: d.str(), From: d.str(), Kind: d.str()}
	if d.err != nil {
		return Message{}, fmt.Errorf("%w: %v", errBadFrame, d.err)
	}
	if d.off < len(body) {
		m.Data = body[d.off:]
	}
	return m, nil
}

// tcpNetwork is a hub-and-spoke TCP transport: a broker listens on a
// loopback port; every node dials in, announces its name, and the broker
// relays messages between them. It exists to demonstrate the protocols
// running over real sockets; the in-memory transport is preferred for
// tests.
type tcpNetwork struct {
	ln    net.Listener
	mu    sync.Mutex
	peers map[string]*frameWriter
	socks map[net.Conn]struct{} // live node sockets, closed on shutdown
	wg    sync.WaitGroup        // accept loop + one serve per socket
}

// frameWriter is the write side of one socket, for the broker and for
// a node alike.
type frameWriter struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte // under mu; reused frame buffer
}

// write frames ms, each stamped with sender from, and hands them to one
// socket write, so an n-message fan-out costs one syscall instead of n.
// A message over the frame bound fails the call before anything is
// written.
func (w *frameWriter) write(from string, ms ...Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.buf[:0]
	for i := range ms {
		m := ms[i]
		m.From = from
		var err error
		if b, err = appendFrame(b, &m); err != nil {
			return err
		}
	}
	w.buf = b
	_, err := w.c.Write(b)
	return err
}

// NewTCPNetwork starts a broker on addr ("127.0.0.1:0" picks a free
// port) and returns the network together with the address nodes connect
// to. Closing the returned closer shuts the broker down and joins every
// broker goroutine: the listener stops accepting, live node sockets are
// closed (unblocking their serve loops), and the closer returns only
// after all of them have exited.
func NewTCPNetwork(addr string) (Network, string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("dist: broker listen: %w", err)
	}
	n := &tcpNetwork{
		ln:    ln,
		peers: make(map[string]*frameWriter),
		socks: make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.acceptLoop()
	}()
	closer := func() error {
		err := ln.Close()
		n.mu.Lock()
		for c := range n.socks {
			_ = c.Close() // unblocks the serve loop's read
		}
		n.mu.Unlock()
		n.wg.Wait()
		return err
	}
	return n, ln.Addr().String(), closer, nil
}

func (n *tcpNetwork) acceptLoop() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // broker closed
		}
		n.mu.Lock()
		n.socks[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(c)
		}()
	}
}

// serve handles one node connection: first message announces the node's
// name; subsequent messages are relayed to their recipients.
func (n *tcpNetwork) serve(c net.Conn) {
	defer func() {
		n.mu.Lock()
		delete(n.socks, c)
		n.mu.Unlock()
		_ = c.Close() // broker teardown; the peer sees EOF either way
	}()
	br := bufio.NewReader(c)
	hello, err := readFrame(br)
	if err != nil || hello.Kind != "hello" {
		return // bad handshake; the deferred close drops the connection
	}
	name := hello.From
	p := &frameWriter{c: c}
	n.mu.Lock()
	n.peers[name] = p
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.peers, name)
		n.mu.Unlock()
	}()
	// Ack the hello only after the node is registered: Join blocks on this
	// ack, so once any node's Join returns, messages sent to it cannot be
	// dropped as "recipient unknown" by a broker that has not caught up.
	if err := p.write("", Message{To: name, Kind: "hello.ok"}); err != nil {
		return // ack failed; the peer sees a read error
	}
	for {
		m, err := readFrame(br)
		if err != nil {
			return
		}
		n.relay(name, m)
	}
}

// relay forwards m to its recipient, stamped with the sender's
// registered name.
func (n *tcpNetwork) relay(from string, m Message) {
	n.mu.Lock()
	p := n.peers[m.To]
	n.mu.Unlock()
	if p == nil {
		return // recipient unknown or gone; the protocols tolerate loss on shutdown
	}
	_ = p.write(from, m) // best-effort relay; loss surfaces as a receiver timeout
}

// Join dials the broker and announces the node name.
func (n *tcpNetwork) Join(name string) (Conn, error) {
	c, err := net.Dial("tcp", n.ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dist: dial broker: %w", err)
	}
	tc := newTCPConn(name, c)
	if err := tc.Send(Message{Kind: "hello"}); err != nil {
		_ = c.Close() // already failing; the handshake error wins
		return nil, fmt.Errorf("dist: hello: %w", err)
	}
	// Wait for the broker's registration ack (see serve); without it a
	// message addressed to this node could race ahead of its registration
	// and be dropped.
	ack, err := readFrame(tc.br)
	if err != nil || ack.Kind != "hello.ok" {
		_ = c.Close() // already failing; the handshake error wins
		return nil, fmt.Errorf("dist: no hello ack for %q (kind=%q, err=%v)", name, ack.Kind, err)
	}
	go tc.readLoop()
	return tc, nil
}

// tcpConn pumps inbound frames through a dedicated reader goroutine
// into a channel. Recv/RecvTimeout select on that channel, so a receive
// deadline can expire without tearing a half-read frame out of the
// stream (a raw SetReadDeadline mid-read would desynchronize the
// framing for every later message).
type tcpConn struct {
	name string
	c    net.Conn
	br   *bufio.Reader // owned by readLoop once it starts
	out  frameWriter

	in      chan Message
	dead    chan struct{} // closed by readLoop after readErr is set
	readErr error         // terminal read error; written before dead closes
	stop    chan struct{} // closed by Close
	stopOne sync.Once
}

// newTCPConn wraps a connected socket; the caller starts readLoop.
func newTCPConn(name string, c net.Conn) *tcpConn {
	return &tcpConn{
		name: name,
		c:    c,
		br:   bufio.NewReader(c),
		out:  frameWriter{c: c},
		in:   make(chan Message, 1024),
		dead: make(chan struct{}),
		stop: make(chan struct{}),
	}
}

func (t *tcpConn) Name() string { return t.name }

// readLoop reads frames until the stream dies, then records the
// terminal error and signals dead. The happens-before edge of close(dead)
// makes readErr safe to read after <-t.dead.
func (t *tcpConn) readLoop() {
	for {
		m, err := readFrame(t.br)
		if err != nil {
			t.readErr = err
			close(t.dead)
			return
		}
		select {
		case t.in <- m:
		case <-t.stop:
			return
		}
	}
}

func (t *tcpConn) Send(m Message) error {
	return t.SendBatch([]Message{m})
}

// SendBatch coalesces a burst into one socket write.
func (t *tcpConn) SendBatch(ms []Message) error {
	if err := t.out.write(t.name, ms...); err != nil {
		return fmt.Errorf("dist: tcp send: %w", err)
	}
	return nil
}

// closedErr reports why the stream ended: ErrClosed joined with the
// underlying read error, so callers can tell a clean shutdown (EOF)
// from a corrupt stream or a reset without losing errors.Is(ErrClosed).
func (t *tcpConn) closedErr() error {
	if t.readErr != nil {
		return errors.Join(ErrClosed, t.readErr)
	}
	return ErrClosed
}

func (t *tcpConn) Recv() (Message, error) {
	select {
	case m := <-t.in:
		return m, nil
	default:
	}
	select {
	case m := <-t.in:
		return m, nil
	case <-t.dead:
		// Drain messages read before the stream died.
		select {
		case m := <-t.in:
			return m, nil
		default:
			return Message{}, t.closedErr()
		}
	case <-t.stop:
		return Message{}, ErrClosed
	}
}

func (t *tcpConn) RecvTimeout(d time.Duration) (Message, error) {
	if d <= 0 {
		return t.Recv()
	}
	select {
	case m := <-t.in:
		return m, nil
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case m := <-t.in:
		return m, nil
	case <-t.dead:
		select {
		case m := <-t.in:
			return m, nil
		default:
			return Message{}, t.closedErr()
		}
	case <-t.stop:
		return Message{}, ErrClosed
	case <-timer.C:
		return Message{}, fmt.Errorf("dist: recv on %q after %v: %w", t.name, d, ErrTimeout)
	}
}

func (t *tcpConn) Close() error {
	t.stopOne.Do(func() { close(t.stop) })
	return t.c.Close()
}
