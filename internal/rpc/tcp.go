package rpc

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"frangipani/internal/bufpool"
	"frangipani/internal/obs"
)

// TCPCarrier implements Carrier over real TCP connections, so the
// Petal, lock service, and Frangipani protocols can run between
// actual processes instead of the simulated network. Each registered
// host gets a listener; senders keep one persistent connection per
// (from, to) pair.
//
// Messages travel in the hand-rolled framing from codec.go (gob only
// for types without a registered wire codec), multiplexed: every
// message gets a stream id and is cut into frames of at most
// maxChunk bytes, and a dedicated writer goroutine per connection
// interleaves the frames of concurrent messages. A 1 MB WriteV no
// longer holds an encoder mutex while it marshals — senders encode
// headers concurrently, enqueue, and the payload bytes are written
// writev-style straight from the caller's buffers. The receiver keeps
// an in-flight table of partially-arrived streams, reassembling each
// message into one pooled buffer and delivering it on its final
// frame, so small RPCs overtake bulk transfers instead of
// head-of-line blocking behind them.
//
// Messages with a correlation id (Call requests and replies) complete
// out of order by design; casts — the lock protocol's asynchronous
// messages, which rely on per-pair FIFO ordering — are confined to a
// single ordered lane per connection: at most one cast is in flight
// at a time and later casts queue behind it, so their delivery order
// is exactly their send order.
//
// The name directory maps logical host names to TCP addresses. In a
// single process (tests) it fills itself as hosts register; across
// processes, seed it with SetAddr.
type TCPCarrier struct {
	mu        sync.Mutex
	dir       map[string]string // logical name -> host:port
	listeners map[string]net.Listener
	recvs     map[string]func(from string, env Envelope, size int)
	conns     map[string]*muxConn // from|to -> connection
	closed    bool

	obsv atomic.Pointer[tcpObs]
}

// tcpObs holds the carrier's wire accounting: real bytes and frames
// on the sockets, message counts per codec path, and the
// receiver-side high-water mark of concurrently open (partially
// received) streams per connection — the direct evidence of
// multiplexing. It sits behind an atomic pointer so SetObs can re-home
// the counters in a registry without racing live connections.
type tcpObs struct {
	bytesSent   *obs.Counter
	bytesRecv   *obs.Counter
	framesSent  *obs.Counter
	framesRecv  *obs.Counter
	msgsFast    *obs.Counter
	msgsGob     *obs.Counter
	decodeErrs  *obs.Counter
	streamsPeak *obs.Gauge
	sendRedials *obs.Counter
	// reg, when wired, feeds connection lifecycle events (connect,
	// drop, redial) into the per-host flight-recorder journals. Nil on
	// an unwired carrier; Journal() on a nil registry no-ops.
	reg *obs.Registry
}

// journal records one connection-lifecycle event into host's journal.
func (o *tcpObs) journal(host, kind string, detail string) {
	o.reg.Journal(host).Record("rpc", "conn", kind, 0, 0, detail)
}

// TCPStats is a snapshot of a carrier's wire accounting.
type TCPStats struct {
	// BytesSent/BytesRecv are real socket bytes including frame
	// headers and connection preambles.
	BytesSent, BytesRecv int64
	// FramesSent/FramesRecv count mux frames.
	FramesSent, FramesRecv int64
	// MsgsFast/MsgsGob split sent messages between the hand-rolled
	// codec and the gob escape hatch.
	MsgsFast, MsgsGob int64
	// DecodeErrs counts inbound messages the codec rejected.
	DecodeErrs int64
	// StreamsPeak is the highest number of concurrently open inbound
	// streams observed on any single connection — a value >= 2 means
	// the carrier really interleaved messages on one socket.
	StreamsPeak int64
	// SendRedials counts sends that found a dead connection and
	// re-dialed.
	SendRedials int64
}

// Stats snapshots the carrier's wire accounting.
func (t *TCPCarrier) Stats() TCPStats {
	o := t.obsv.Load()
	return TCPStats{
		BytesSent:   o.bytesSent.Value(),
		BytesRecv:   o.bytesRecv.Value(),
		FramesSent:  o.framesSent.Value(),
		FramesRecv:  o.framesRecv.Value(),
		MsgsFast:    o.msgsFast.Value(),
		MsgsGob:     o.msgsGob.Value(),
		DecodeErrs:  o.decodeErrs.Value(),
		StreamsPeak: o.streamsPeak.Value(),
		SendRedials: o.sendRedials.Value(),
	}
}

// SetObs re-homes the carrier's counters in a metrics registry under
// rpc.tcp.* so daemon deployments export bytes-on-wire alongside the
// rest of the cluster metrics. Counts accumulated before the call are
// not migrated.
func (t *TCPCarrier) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.obsv.Store(&tcpObs{
		bytesSent:   reg.Counter("rpc.tcp.bytes.sent"),
		bytesRecv:   reg.Counter("rpc.tcp.bytes.recv"),
		framesSent:  reg.Counter("rpc.tcp.frames.sent"),
		framesRecv:  reg.Counter("rpc.tcp.frames.recv"),
		msgsFast:    reg.Counter("rpc.tcp.msgs.fast"),
		msgsGob:     reg.Counter("rpc.tcp.msgs.gob"),
		decodeErrs:  reg.Counter("rpc.tcp.decode.errors"),
		streamsPeak: reg.Gauge("rpc.tcp.streams.peak"),
		sendRedials: reg.Counter("rpc.tcp.send.redials"),
		reg:         reg,
	})
}

// Wire framing constants. Each frame is
//
//	u32 chunkLen | u32 streamID | u8 flags | [u32 msgLen if FIRST] | chunk
//
// and a new connection opens with a preamble: magic, then the
// sender's uvarint-length-prefixed logical name (constant for the
// connection, so it is not repeated per message).
const (
	frameHdrLen = 9
	flagFirst   = 1
	flagFin     = 2

	// maxChunk bounds one frame's chunk so a bulk transfer yields the
	// socket to concurrent messages every 64 KB.
	maxChunk = 64 << 10
	// maxMsg bounds a whole reassembled message — far above the 1 MB
	// scatter-gather cap, low enough to reject corrupt lengths before
	// they allocate.
	maxMsg = 16 << 20
	// sendQueue is the per-connection backpressure depth.
	sendQueue = 256
)

var muxMagic = [6]byte{'F', 'R', 'G', 'P', '2', '\n'}

// RegisterType makes a concrete message type encodable on TCP
// carriers' gob escape hatch (a thin wrapper over gob.Register).
func RegisterType(v any) { gob.Register(v) }

func init() {
	gob.Register(Envelope{})
}

// NewTCPCarrier returns an empty carrier.
func NewTCPCarrier() *TCPCarrier {
	t := &TCPCarrier{
		dir:       make(map[string]string),
		listeners: make(map[string]net.Listener),
		recvs:     make(map[string]func(string, Envelope, int)),
		conns:     make(map[string]*muxConn),
	}
	t.obsv.Store(&tcpObs{
		bytesSent:   obs.NewCounter(),
		bytesRecv:   obs.NewCounter(),
		framesSent:  obs.NewCounter(),
		framesRecv:  obs.NewCounter(),
		msgsFast:    obs.NewCounter(),
		msgsGob:     obs.NewCounter(),
		decodeErrs:  obs.NewCounter(),
		streamsPeak: obs.NewGauge(),
		sendRedials: obs.NewCounter(),
	})
	return t
}

// SetAddr seeds the name directory (for cross-process deployments).
func (t *TCPCarrier) SetAddr(name, addr string) {
	t.mu.Lock()
	t.dir[name] = addr
	t.mu.Unlock()
}

// Addr reports the listen address of a registered host.
func (t *TCPCarrier) Addr(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dir[name]
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

// inStream is one partially received message in the receiver's
// in-flight table.
type inStream struct {
	buf *[]byte
	off int
}

func (t *TCPCarrier) serveConn(name string, conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, maxChunk)

	// Preamble: magic + sender name.
	var magic [len(muxMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != muxMagic {
		return
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 4096 {
		return
	}
	fromBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, fromBuf); err != nil {
		return
	}
	from := string(fromBuf)
	t.obsv.Load().bytesRecv.Add(int64(len(muxMagic)) + 1 + int64(nameLen))

	streams := make(map[uint32]*inStream)
	defer func() {
		// Connection died mid-message: the partial buffers were never
		// delivered, so they can go straight back to the pool.
		for _, st := range streams {
			bufpool.Put(st.buf)
		}
		t.obsv.Load().journal(name, "drop", "inbound from "+from)
	}()
	var hdr [frameHdrLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		o := t.obsv.Load()
		chunkLen := int(binary.BigEndian.Uint32(hdr[0:4]))
		streamID := binary.BigEndian.Uint32(hdr[4:8])
		flags := hdr[8]
		if chunkLen > maxChunk {
			return // corrupt frame; drop the connection
		}
		wire := int64(frameHdrLen + chunkLen)
		st := streams[streamID]
		if flags&flagFirst != 0 {
			var tl [4]byte
			if _, err := io.ReadFull(br, tl[:]); err != nil {
				return
			}
			wire += 4
			total := int(binary.BigEndian.Uint32(tl[:]))
			if total > maxMsg || chunkLen > total || st != nil {
				return
			}
			st = &inStream{buf: bufpool.Get(total)}
			streams[streamID] = st
			o.streamsPeak.SetMax(int64(len(streams)))
		}
		if st == nil || st.off+chunkLen > len(*st.buf) {
			return // frame for an unknown stream, or overflow
		}
		if _, err := io.ReadFull(br, (*st.buf)[st.off:st.off+chunkLen]); err != nil {
			return
		}
		st.off += chunkLen
		o.bytesRecv.Add(wire)
		o.framesRecv.Inc()
		if flags&flagFin == 0 {
			continue
		}
		delete(streams, streamID)
		if st.off != len(*st.buf) {
			return // short message; drop the connection
		}
		rb := NewRecvBuf(st.buf)
		body, retained, err := DecodeMessage(*st.buf, rb)
		if !retained {
			rb.Release()
		}
		env, isEnv := body.(Envelope) // a gob body of another type is no message
		if err != nil || !isEnv {
			o.decodeErrs.Inc()
			continue
		}
		t.mu.Lock()
		recv := t.recvs[name]
		t.mu.Unlock()
		if recv != nil {
			recv(from, env, st.off)
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

// outMsg is one encoded message queued at a connection's writer.
type outMsg struct {
	hdrp     *[]byte  // pooled buffer the header was built in
	hdr      []byte   // message prefix (tag + envelope + type header)
	payloads [][]byte // zero-copy payload slices
	total    int
	ordered  bool
}

// muxConn is the sender side of one (from, to) connection: an
// encode-free queue drained by a writer goroutine that interleaves
// message frames.
type muxConn struct {
	c    net.Conn
	ch   chan outMsg
	done chan struct{} // closed when the connection dies
	once sync.Once
}

func (mc *muxConn) kill() {
	mc.once.Do(func() {
		close(mc.done)
		mc.c.Close()
	})
}

// Send implements Carrier: encode in the caller, enqueue on the
// pair's connection, and let the writer goroutine interleave the
// bytes. A send that finds a dead connection re-dials; errors are
// returned only for immediately detectable failures (unknown host,
// dial refused) — a message accepted into the queue is best-effort,
// exactly like the simulated network after its Send returns.
func (t *TCPCarrier) Send(from, to string, env Envelope, size int) error {
	m, err := encodeOut(env)
	if err != nil {
		return err
	}
	key := from + "|" + to
	for attempt := 0; ; attempt++ {
		mc, err := t.getConn(key, from, to)
		if err != nil {
			bufpool.Put(m.hdrp)
			return err
		}
		select {
		case mc.ch <- m:
			return nil
		case <-mc.done:
			t.dropConn(key, mc)
			if attempt >= 2 {
				bufpool.Put(m.hdrp)
				t.obsv.Load().journal(from, "drop", "to "+to+": connection lost")
				return fmt.Errorf("rpc: send %s->%s: connection lost", from, to)
			}
			t.obsv.Load().sendRedials.Inc()
			t.obsv.Load().journal(from, "redial", "to "+to)
		}
	}
}

// encodeOut serializes env into an outMsg: the message prefix in a
// pooled buffer, payload slices zero-copy. Casts are marked ordered so
// the writer preserves their FIFO order.
func encodeOut(env Envelope) (outMsg, error) {
	hdrp := bufpool.Get(512)
	hdr, payloads, _, err := AppendMessageHeader((*hdrp)[:0], nil, env)
	if err != nil {
		bufpool.Put(hdrp)
		return outMsg{}, err
	}
	total := len(hdr)
	for _, p := range payloads {
		total += len(p)
	}
	return outMsg{hdrp: hdrp, hdr: hdr, payloads: payloads, total: total, ordered: env.ID == 0}, nil
}

func (t *TCPCarrier) getConn(key, from, to string) (*muxConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	mc := t.conns[key]
	addr := t.dir[to]
	t.mu.Unlock()
	if mc != nil {
		return mc, nil
	}
	if addr == "" {
		return nil, fmt.Errorf("rpc: no address for host %q", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.obsv.Load().journal(from, "dial-fail", "to "+to+": "+err.Error())
		return nil, fmt.Errorf("rpc: dial %s: %w", to, err)
	}
	t.obsv.Load().journal(from, "connect", "to "+to)
	// Preamble before any frame.
	pre := make([]byte, 0, len(muxMagic)+1+len(from))
	pre = append(pre, muxMagic[:]...)
	pre = binary.AppendUvarint(pre, uint64(len(from)))
	pre = append(pre, from...)
	if _, err := c.Write(pre); err != nil {
		c.Close()
		return nil, fmt.Errorf("rpc: preamble %s: %w", to, err)
	}
	t.obsv.Load().bytesSent.Add(int64(len(pre)))
	mc = &muxConn{c: c, ch: make(chan outMsg, sendQueue), done: make(chan struct{})}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if existing := t.conns[key]; existing != nil {
		// Lost the dial race; use the winner.
		t.mu.Unlock()
		c.Close()
		return existing, nil
	}
	t.conns[key] = mc
	t.mu.Unlock()
	go t.writeLoop(key, mc)
	return mc, nil
}

func (t *TCPCarrier) dropConn(key string, mc *muxConn) {
	t.mu.Lock()
	if t.conns[key] == mc {
		delete(t.conns, key)
	}
	t.mu.Unlock()
	mc.kill()
}

// sendStream is one message in flight at the writer: its unwritten
// byte slices plus mux bookkeeping.
type sendStream struct {
	id      uint32
	m       outMsg
	vecs    [][]byte
	left    int
	started bool
}

// writeLoop drains a connection's queue, interleaving the frames of
// concurrent messages (round-robin, one chunk each) so no message
// head-of-line blocks the others. Ordered messages (casts) are
// admitted one at a time in FIFO order.
func (t *TCPCarrier) writeLoop(key string, mc *muxConn) {
	defer t.dropConn(key, mc)
	var (
		active     []*sendStream
		orderedQ   []outMsg // casts waiting for the ordered lane
		orderedOn  bool     // a cast is currently in flight
		nextStream uint32
		rr         int // round-robin index into active
		iov        net.Buffers
	)
	var admit func(m outMsg)
	admit = func(m outMsg) {
		if m.ordered {
			if orderedOn {
				orderedQ = append(orderedQ, m)
				return
			}
			orderedOn = true
		}
		nextStream++
		st := &sendStream{id: nextStream, m: m, left: m.total}
		st.vecs = append(st.vecs, m.hdr)
		st.vecs = append(st.vecs, m.payloads...)
		active = append(active, st)
	}
	finish := func(i int) {
		st := active[i]
		bufpool.Put(st.m.hdrp)
		active = append(active[:i], active[i+1:]...)
		if st.m.ordered {
			orderedOn = false
			if len(orderedQ) > 0 {
				m := orderedQ[0]
				orderedQ = orderedQ[:copy(orderedQ, orderedQ[1:])]
				admit(m)
			}
		}
	}
	o := t.obsv.Load()
	for {
		if len(active) == 0 {
			select {
			case m := <-mc.ch:
				admit(m)
			case <-mc.done:
				return
			}
		}
		// Pick up everything already queued so concurrent messages
		// interleave rather than run back to back.
	drain:
		for {
			select {
			case m := <-mc.ch:
				admit(m)
			default:
				break drain
			}
		}
		if rr >= len(active) {
			rr = 0
		}
		st := active[rr]
		// Assemble one frame: header plus up to maxChunk bytes of the
		// stream, gathered writev-style from the original slices.
		chunk := st.left
		if chunk > maxChunk {
			chunk = maxChunk
		}
		var fh [frameHdrLen + 4]byte
		binary.BigEndian.PutUint32(fh[0:4], uint32(chunk))
		binary.BigEndian.PutUint32(fh[4:8], st.id)
		flags := byte(0)
		n := frameHdrLen
		if !st.started {
			st.started = true
			flags |= flagFirst
			binary.BigEndian.PutUint32(fh[frameHdrLen:], uint32(st.m.total))
			n += 4
			if st.m.hdr[0] == TagGob {
				o.msgsGob.Inc()
			} else {
				o.msgsFast.Inc()
			}
		}
		if chunk == st.left {
			flags |= flagFin
		}
		fh[8] = flags
		iov = iov[:0]
		iov = append(iov, fh[:n])
		rem := chunk
		for rem > 0 {
			v := st.vecs[0]
			if len(v) <= rem {
				iov = append(iov, v)
				rem -= len(v)
				st.vecs = st.vecs[1:]
			} else {
				iov = append(iov, v[:rem])
				st.vecs[0] = v[rem:]
				rem = 0
			}
		}
		st.left -= chunk
		wire := int64(n + chunk)
		if _, err := iov.WriteTo(mc.c); err != nil {
			return
		}
		o.bytesSent.Add(wire)
		o.framesSent.Inc()
		if st.left == 0 {
			finish(rr)
		} else {
			rr++
		}
	}
}

// Close shuts down every listener and connection.
func (t *TCPCarrier) Close() {
	t.mu.Lock()
	t.closed = true
	lns := t.listeners
	conns := t.conns
	t.listeners = make(map[string]net.Listener)
	t.conns = make(map[string]*muxConn)
	t.recvs = make(map[string]func(string, Envelope, int))
	t.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, mc := range conns {
		mc.kill()
	}
}
