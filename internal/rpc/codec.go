package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sync/atomic"

	"frangipani/internal/bufpool"
)

// Wire codec: hand-rolled, length-prefixed binary framing for the
// high-volume message types, with gob kept as an escape hatch for
// rare control and bootstrap traffic.
//
// One message (the bytes of one frame) looks like:
//
//	u8      tag        type tag; 0 = gob escape hatch
//	-- tag 0 --
//	gob     gobMsg{Body}   (self-describing; any registered type)
//	-- tag != 0 --
//	uvarint id<<1 | isReply
//	u32     headerLen
//	[]byte  header     type-specific fields (AppendWireHeader)
//	[]byte  payload    raw payload bytes, zero-copy on encode
//
// Hot types implement WireMessage for encode and register a
// WireDecoderFunc for decode; everything else transparently falls
// back to gob. Payload bytes never pass through an intermediate
// marshal buffer: the encoder hands the carrier the original slices
// (written writev-style after the header), and the decoder hands the
// protocol layer subslices of the pooled receive buffer.

// Codec errors. Decoders must return errors — never panic — on
// malformed input; the fuzz tests enforce this.
var (
	ErrBadMessage = errors.New("rpc: malformed wire message")
	ErrUnknownTag = errors.New("rpc: unknown wire type tag")
)

// TagGob is the type tag of the gob escape hatch.
const TagGob byte = 0

// WireMessage is implemented by message types with a hand-rolled
// binary encoding. The encoder writes AppendWireHeader's bytes
// followed by the raw payload slices, so payload []byte fields travel
// zero-copy; the header must encode enough (e.g. per-extent lengths)
// for the decoder to slice the payload back apart.
type WireMessage interface {
	// WireTag returns the type tag (never 0).
	WireTag() byte
	// AppendWireHeader appends the non-payload fields to dst.
	AppendWireHeader(dst []byte) []byte
	// AppendWirePayloads appends the raw payload slices to dst and
	// returns it along with the total payload byte count.
	AppendWirePayloads(dst [][]byte) ([][]byte, int)
}

// WireDecoderFunc reconstructs a message body from its header and
// payload sections. Payload subslices may alias payload (and thus the
// pooled receive buffer rb); a decoder that does so must retain rb in
// the body (so the consumer can release it) and return retained=true.
// Header-derived fields (strings, integers) must be copies.
type WireDecoderFunc func(header, payload []byte, rb *RecvBuf) (body any, retained bool, err error)

var wireDecoders [256]atomic.Pointer[WireDecoderFunc]

// RegisterWireDecoder installs the decoder for a type tag. Protocol
// packages call it from init; tag 0 is reserved for gob.
func RegisterWireDecoder(tag byte, fn WireDecoderFunc) {
	if tag == TagGob {
		panic("rpc: tag 0 is reserved for the gob escape hatch")
	}
	wireDecoders[tag].Store(&fn)
}

// RecvBuf is the pooled buffer one message's payload lives in: the
// receive buffer it was decoded from, or the buffer a handler built its
// reply in. Release returns it to the pool; it is idempotent and safe to
// race, so a stray double release can never hand the same buffer out
// twice.
type RecvBuf struct {
	p atomic.Pointer[[]byte]
}

// NewRecvBuf wraps a pooled buffer (from bufpool.Get) for release
// tracking.
func NewRecvBuf(p *[]byte) *RecvBuf {
	rb := &RecvBuf{}
	rb.Hold(p)
	return rb
}

// Hold makes b the holder of p, a pooled buffer: for a RecvBuf that lives
// in the message whose payload it holds, not apart from it.
func (b *RecvBuf) Hold(p *[]byte) { b.p.Store(p) }

// Release returns the buffer to the pool. Only the first call acts;
// nil receivers are no-ops so value copies of undecoded messages are
// harmless.
func (b *RecvBuf) Release() {
	if b == nil {
		return
	}
	if p := b.p.Swap(nil); p != nil {
		bufpool.Put(p)
	}
}

// WireReleaser is implemented by decoded bodies that hold a pooled
// receive buffer.
type WireReleaser interface{ ReleaseWire() }

// Release returns body's pooled receive buffer, if it holds one.
// Safe on any value; bodies without pooled storage are no-ops.
func Release(body any) {
	if r, ok := body.(WireReleaser); ok {
		r.ReleaseWire()
	}
}

// gobMsg wraps the escape-hatch payload so any registered concrete
// type — including Envelope itself — round-trips.
type gobMsg struct{ Body any }

func init() { gob.Register(gobMsg{}) }

// AppendMessageHeader encodes env's message prefix — everything
// before the raw payload bytes — appending it to dst, and appends the
// zero-copy payload slices to payloads. fast reports whether the
// hand-rolled path was taken; on the gob path the whole message is in
// the returned header and payloads is untouched.
func AppendMessageHeader(dst []byte, payloads [][]byte, env Envelope) (hdr []byte, pl [][]byte, fast bool, err error) {
	if wm, ok := env.Body.(WireMessage); ok {
		if tag := wm.WireTag(); tag != TagGob {
			dst = append(dst, tag)
			dst = binary.AppendUvarint(dst, env.word())
			mark := len(dst)
			// Reserve a fixed 4-byte spot for headerLen so the header
			// can be appended in place, then patch it.
			dst = append(dst, 0, 0, 0, 0)
			dst = wm.AppendWireHeader(dst)
			hl := len(dst) - mark - 4
			binary.BigEndian.PutUint32(dst[mark:], uint32(hl))
			payloads, _ = wm.AppendWirePayloads(payloads)
			return dst, payloads, true, nil
		}
	}
	dst = append(dst, TagGob)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(gobMsg{Body: env}); err != nil {
		return dst, payloads, false, fmt.Errorf("rpc: gob encode: %w", err)
	}
	return append(dst, buf.Bytes()...), payloads, false, nil
}

// AppendMessage appends the complete serialized message (prefix plus
// payload bytes) to dst — the reference form used by tests, fuzzing,
// and benchmarks. The carrier itself writes the same bytes without
// copying the payloads.
func AppendMessage(dst []byte, env Envelope) ([]byte, error) {
	hdr, payloads, _, err := AppendMessageHeader(dst, nil, env)
	if err != nil {
		return dst, err
	}
	for _, p := range payloads {
		hdr = append(hdr, p...)
	}
	return hdr, nil
}

// DecodeMessage parses one serialized message. The returned body is
// the value a carrier delivers to its receive callback (normally an
// Envelope). Payload fields alias data — and therefore rb, which the
// consumer must Release once done — when retained is true; rb may be
// nil when the caller manages the buffer itself.
func DecodeMessage(data []byte, rb *RecvBuf) (body any, retained bool, err error) {
	if len(data) < 1 {
		return nil, false, fmt.Errorf("%w: empty", ErrBadMessage)
	}
	tag := data[0]
	if tag == TagGob {
		var gm gobMsg
		if err := gob.NewDecoder(bytes.NewReader(data[1:])).Decode(&gm); err != nil {
			return nil, false, fmt.Errorf("%w: gob: %v", ErrBadMessage, err)
		}
		return gm.Body, false, nil
	}
	fp := wireDecoders[tag].Load()
	if fp == nil {
		return nil, false, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	c := Cursor{Data: data, Off: 1}
	idBits := c.Uvarint()
	if c.Bad || c.Off+4 > len(data) {
		return nil, false, fmt.Errorf("%w: truncated envelope", ErrBadMessage)
	}
	hl := int(binary.BigEndian.Uint32(data[c.Off:]))
	c.Off += 4
	if hl < 0 || hl > len(data)-c.Off {
		return nil, false, fmt.Errorf("%w: header length %d exceeds message", ErrBadMessage, hl)
	}
	header := data[c.Off : c.Off+hl]
	payload := data[c.Off+hl:]
	inner, retained, err := (*fp)(header, payload, rb)
	if err != nil {
		return nil, false, err
	}
	return envelope(idBits, inner), retained, nil
}

// Cursor is a bounds-checked reader over one message section.
// Malformed input sets Bad instead of panicking; check Bad (or use
// Done) after reading.
type Cursor struct {
	Data []byte
	Off  int
	Bad  bool
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.Bad {
		return 0
	}
	v, n := binary.Uvarint(c.Data[c.Off:])
	if n <= 0 {
		c.Bad = true
		return 0
	}
	c.Off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (c *Cursor) Varint() int64 {
	if c.Bad {
		return 0
	}
	v, n := binary.Varint(c.Data[c.Off:])
	if n <= 0 {
		c.Bad = true
		return 0
	}
	c.Off += n
	return v
}

// Len reads a uvarint and validates it as a byte length that still
// fits in the unread remainder of the section.
func (c *Cursor) Len() int {
	v := c.Uvarint()
	if c.Bad {
		return 0
	}
	if v > uint64(len(c.Data)-c.Off) {
		c.Bad = true
		return 0
	}
	return int(v)
}

// Count reads a uvarint element count, bounded by the bytes left in
// the section (each element needs at least minBytes of header), so a
// hostile count cannot force a huge allocation.
func (c *Cursor) Count(minBytes int) int {
	v := c.Uvarint()
	if c.Bad {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64((len(c.Data)-c.Off)/minBytes) {
		c.Bad = true
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.Bad || c.Off >= len(c.Data) {
		c.Bad = true
		return 0
	}
	b := c.Data[c.Off]
	c.Off++
	return b
}

// Bool reads one byte as a boolean.
func (c *Cursor) Bool() bool { return c.Byte() != 0 }

// Take returns the next n bytes as a subslice (aliasing Data).
func (c *Cursor) Take(n int) []byte {
	if c.Bad || n < 0 || n > len(c.Data)-c.Off {
		c.Bad = true
		return nil
	}
	b := c.Data[c.Off : c.Off+n : c.Off+n]
	c.Off += n
	return b
}

// String reads a uvarint-length-prefixed string (copied, never
// aliasing Data).
func (c *Cursor) String() string {
	n := c.Len()
	if c.Bad {
		return ""
	}
	return string(c.Take(n))
}

// Done reports a fully-consumed, well-formed section. Decoders should
// require Done on the header so trailing garbage is rejected.
func (c *Cursor) Done() bool { return !c.Bad && c.Off == len(c.Data) }

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBool appends a boolean as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}
