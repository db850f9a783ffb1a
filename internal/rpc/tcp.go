package rpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"frangipani/internal/bufpool"
)

// TCPCarrier implements Carrier over real TCP connections, so the
// Petal, lock service, and Frangipani protocols can run between
// actual processes instead of the simulated network. Each registered
// host gets a listener; senders keep one persistent connection per
// (from, to) pair.
//
// A pair's connection is its FIFO, as a sim.Network pair's queue is.
// Each message is one frame in the codec.go format, which its sender
// writes whole under the connection's mutex: the header and the payload
// slices in one writev, the payload bytes straight from the caller's
// buffers. The receiver reads each frame into one pooled buffer, decodes
// it and delivers it before it reads the next, so a pair's messages —
// casts and calls alike — arrive in send order.
//
// The name directory maps logical host names to TCP addresses. In a
// single process (tests) it fills itself as hosts register; across
// processes, seed it with SetAddr.
type TCPCarrier struct {
	mu        sync.Mutex
	dir       map[string]string // logical name -> host:port
	listeners map[string]net.Listener
	recvs     map[string]func(from string, env Envelope, size int)
	conns     map[string]*tcpConn // from|to -> connection
	closed    bool
}

// Wire format. A new connection opens with a preamble: magic, then the
// sender's uvarint-length-prefixed logical name (constant for the
// connection, so it is not repeated per message). Each message after
// it is one frame:
//
//	u32 len | message (len bytes)
const (
	// maxMsg bounds one message — far above the 1 MB scatter-gather
	// cap, low enough to reject corrupt lengths before they allocate.
	maxMsg = 16 << 20
	// maxName bounds the sender name of a preamble.
	maxName = 4096
)

var magic = [6]byte{'F', 'R', 'G', 'P', '3', '\n'}

// NewTCPCarrier returns an empty carrier.
func NewTCPCarrier() *TCPCarrier {
	return &TCPCarrier{
		dir:       make(map[string]string),
		listeners: make(map[string]net.Listener),
		recvs:     make(map[string]func(string, Envelope, int)),
		conns:     make(map[string]*tcpConn),
	}
}

// SetAddr seeds the name directory (for cross-process deployments).
func (t *TCPCarrier) SetAddr(name, addr string) {
	t.mu.Lock()
	t.dir[name] = addr
	t.mu.Unlock()
}

// Register implements Carrier: it opens a listener for the host and
// serves incoming frames to recv.
func (t *TCPCarrier) Register(name string, recv func(from string, env Envelope, size int)) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("rpc: tcp listen: %v", err))
	}
	t.mu.Lock()
	t.dir[name] = ln.Addr().String()
	t.listeners[name] = ln
	t.recvs[name] = recv
	t.mu.Unlock()
	go t.acceptLoop(name, ln)
}

func (t *TCPCarrier) acceptLoop(name string, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go t.serveConn(name, conn)
	}
}

// serveConn reads one inbound connection's frames and delivers each in
// turn. A corrupt frame drops the connection; a message the codec
// rejects is dropped alone.
func (t *TCPCarrier) serveConn(name string, conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)

	// Preamble: magic + sender name.
	var m [len(magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil || m != magic {
		return
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > maxName {
		return
	}
	fromBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, fromBuf); err != nil {
		return
	}
	from := string(fromBuf)

	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(lenBuf[:]))
		if n > maxMsg {
			return
		}
		buf := bufpool.Get(n)
		if _, err := io.ReadFull(br, *buf); err != nil {
			bufpool.Put(buf)
			return
		}
		rb := NewRecvBuf(buf)
		env, retained, err := DecodeMessage(*buf, rb)
		if !retained {
			rb.Release()
		}
		if err != nil {
			continue
		}
		t.mu.Lock()
		recv := t.recvs[name]
		t.mu.Unlock()
		if recv != nil {
			recv(from, env, n)
		} else {
			Release(env.Body)
		}
	}
}

// Unregister implements Carrier.
func (t *TCPCarrier) Unregister(name string) {
	t.mu.Lock()
	if ln, ok := t.listeners[name]; ok {
		ln.Close()
		delete(t.listeners, name)
	}
	delete(t.recvs, name)
	t.mu.Unlock()
}

// tcpConn is the sender side of one (from, to) connection. mu makes
// each message's frame one write, so frames never interleave.
type tcpConn struct {
	c net.Conn

	mu   sync.Mutex
	hdr  []byte      // the frame's length and message header
	iov  [][]byte    // hdr, then the message's payload slices
	bufs net.Buffers // iov as the writev consumes it
}

// write sends env as one frame. dead reports a failed write, after
// which the connection is no use; an encoding error leaves it as it
// was.
func (tc *tcpConn) write(env Envelope) (dead bool, err error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	hdr, iov, err := AppendMessageHeader(append(tc.hdr[:0], 0, 0, 0, 0), append(tc.iov[:0], nil), env)
	if err != nil {
		return false, err
	}
	n := len(hdr) - 4
	for _, p := range iov[1:] {
		n += len(p)
	}
	iov[0] = hdr
	if n <= maxMsg {
		binary.BigEndian.PutUint32(hdr, uint32(n))
		tc.bufs = iov
		_, err = tc.bufs.WriteTo(tc.c)
		dead = err != nil
	} else {
		err = fmt.Errorf("rpc: message of %d bytes exceeds %d", n, maxMsg)
	}
	clear(iov) // hold no payload past the send
	tc.hdr, tc.iov = hdr[:0], iov[:0]
	return dead, err
}

// Send implements Carrier: the caller encodes the message and writes
// it on the pair's connection, blocking only while the kernel's buffer
// to the peer is full. A send that finds a dead connection re-dials;
// errors are returned only for immediately detectable failures
// (unknown host, dial refused) — a message that was written is
// best-effort, exactly like the simulated network after its Send
// returns.
func (t *TCPCarrier) Send(from, to string, env Envelope, size int) error {
	key := from + "|" + to
	for attempt := 0; ; attempt++ {
		tc, err := t.getConn(key, from, to)
		if err != nil {
			return err
		}
		dead, err := tc.write(env)
		if !dead {
			return err
		}
		t.dropConn(key, tc)
		if attempt >= 2 {
			return fmt.Errorf("rpc: send %s->%s: connection lost: %w", from, to, err)
		}
	}
}

func (t *TCPCarrier) getConn(key, from, to string) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	tc := t.conns[key]
	addr := t.dir[to]
	t.mu.Unlock()
	if tc != nil {
		return tc, nil
	}
	if addr == "" {
		return nil, fmt.Errorf("rpc: no address for host %q", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", to, err)
	}
	pre := binary.AppendUvarint(append([]byte(nil), magic[:]...), uint64(len(from)))
	if _, err := c.Write(append(pre, from...)); err != nil {
		c.Close()
		return nil, fmt.Errorf("rpc: preamble %s: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.Close()
		return nil, ErrClosed
	}
	if existing := t.conns[key]; existing != nil {
		// Lost the dial race; use the winner.
		c.Close()
		return existing, nil
	}
	tc = &tcpConn{c: c}
	t.conns[key] = tc
	return tc, nil
}

func (t *TCPCarrier) dropConn(key string, tc *tcpConn) {
	t.mu.Lock()
	if t.conns[key] == tc {
		delete(t.conns, key)
	}
	t.mu.Unlock()
	tc.c.Close()
}

// Close shuts down every listener and outbound connection; a peer's
// serving goroutine ends when it reads the connection's end.
func (t *TCPCarrier) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for _, ln := range t.listeners {
		ln.Close()
	}
	for _, tc := range t.conns {
		tc.c.Close()
	}
	clear(t.listeners)
	clear(t.conns)
	clear(t.recvs)
}
