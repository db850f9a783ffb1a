package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync/atomic"

	"frangipani/internal/bufpool"
)

// Wire codec: one encoding for every message type. The exported fields
// of a registered type are its wire format; the codec walks them by a
// plan it builds once per type at Register.
//
// One message (the bytes of one frame) looks like:
//
//	uvarint  id<<1 | isReply   the envelope's correlation
//	u32      headerLen
//	[]byte   header            the body, as an interface value (below)
//	[]byte   payload           every []byte field's bytes, in field order
//
// A value is written by its type:
//
//	bool               one byte, 0 or 1
//	int, int8…int64    zigzag varint
//	uint, uint8…uint64 uvarint
//	string             uvarint length, then the bytes
//	[]byte             uvarint(len<<1 | present) in the header, the
//	                   bytes in the payload section
//	other slices       uvarint(len<<1 | present), then each element
//	string-keyed maps  uvarint(len<<1 | present), then key and value
//	                   of each entry, in no fixed order
//	struct             its exported fields, in declaration order
//	interface          uvarint(type<<1 | pointer), 0 for nil, then the
//	                   value the interface holds
//
// The presence bit keeps a nil slice or map (a hole in a sparse read)
// apart from an empty one, and the pointer bit a *T apart from a T: a
// message arrives in the shape it was sent, on both carriers. A type id
// is a hash of the type's package path and name, so it does not depend
// on which packages a binary links or in what order they register.
//
// Payload bytes never pass through an intermediate buffer: the encoder
// hands the carrier the caller's own slices (written writev-style after
// the header), and the decoder hands the body subslices of the pooled
// receive buffer, through WireHolder.

// Codec errors. The decoder returns them — never panics — on malformed
// input; the fuzz tests enforce this.
var (
	ErrBadMessage  = errors.New("rpc: malformed wire message")
	ErrUnknownType = errors.New("rpc: unknown wire type")
)

// maxDepth bounds how deep a decoded message nests interface values,
// and planFor how deep a type nests types, so neither a hostile frame
// nor a recursive type can recurse the codec off its stack.
const maxDepth = 16

// plan is how values of one type are encoded: built once, at Register.
type plan struct {
	typ    reflect.Type
	id     uint64  // the wire type id; 0 for a type that is not registered
	key    *plan   // a map's key
	elem   *plan   // a slice's element (nil for []byte), a map's value
	fields []field // a struct's exported fields
	min    int     // the fewest header bytes a value takes: bounds decoded counts
}

type field struct {
	index int
	*plan
}

// The registered types, by type and by id. Register fills them from
// init functions; encoders and decoders only read them after.
var (
	byType = map[reflect.Type]*plan{}
	byID   = map[uint64]*plan{}
	plans  = map[reflect.Type]*plan{} // every plan built
)

// Register makes each value's type a message type: a body, or the value
// of an interface field, that the codec can carry. A pointer registers
// the type it points to; the pointer bit of each message says which was
// sent. Protocol packages call it from init with their message types.
// It panics on a type the codec cannot carry and on two types whose ids
// collide: both are bugs of the program, not of its input.
func Register(values ...any) {
	for _, v := range values {
		t := reflect.TypeOf(v)
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		h := fnv.New32a()
		h.Write([]byte(t.PkgPath() + "." + t.Name()))
		id := uint64(max(h.Sum32()>>5, 1)) // id<<1 | pointer fits 4 bytes; 0 is nil
		if q := byID[id]; q != nil && q.typ != t {
			panic(fmt.Sprintf("rpc: %v and %v share wire type id %d", t, q.typ, id))
		}
		p := planFor(t, 0)
		p.id, byType[t], byID[id] = id, p, p
	}
}

// planFor returns the plan of t, building it and the plans of its parts
// once.
func planFor(t reflect.Type, depth int) *plan {
	if p := plans[t]; p != nil {
		return p
	}
	if depth > maxDepth {
		panic(fmt.Sprintf("rpc: %v nests too deep, or is recursive", t))
	}
	p := &plan{typ: t, min: 1}
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Interface,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	case reflect.Slice:
		if t.Elem().Kind() != reflect.Uint8 {
			p.elem = planFor(t.Elem(), depth+1)
		}
	case reflect.Map:
		if t.Key().Kind() != reflect.String {
			panic(fmt.Sprintf("rpc: %v: only string-keyed maps go on the wire", t))
		}
		p.key, p.elem = planFor(t.Key(), depth+1), planFor(t.Elem(), depth+1)
	case reflect.Struct:
		p.min = 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fp := planFor(f.Type, depth+1)
				p.fields = append(p.fields, field{index: i, plan: fp})
				p.min += fp.min
			}
		}
	default:
		panic(fmt.Sprintf("rpc: %v: a %v does not go on the wire", t, t.Kind()))
	}
	plans[t] = p
	return p
}

// encoder appends a value's header bytes to hdr and its payload slices
// to pay.
type encoder struct {
	hdr []byte
	pay [][]byte
	err error
}

// iface writes v, the value an interface holds (invalid for nil), as
// an interface value: its type word, then the value.
func (e *encoder) iface(v reflect.Value) {
	if !v.IsValid() {
		e.hdr = append(e.hdr, 0)
		return
	}
	var ptr uint64
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v, ptr = v.Elem(), 1
	}
	p := byType[v.Type()]
	if p == nil {
		e.err = fmt.Errorf("rpc: %v is not a registered message type", v.Type())
		return
	}
	e.hdr = binary.AppendUvarint(e.hdr, p.id<<1|ptr)
	e.value(p, v)
}

func (e *encoder) value(p *plan, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		e.hdr = append(e.hdr, b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.hdr = binary.AppendVarint(e.hdr, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.hdr = binary.AppendUvarint(e.hdr, v.Uint())
	case reflect.String:
		e.hdr = binary.AppendUvarint(e.hdr, uint64(v.Len()))
		e.hdr = append(e.hdr, v.String()...)
	case reflect.Slice:
		e.length(v)
		if p.elem == nil {
			if v.Len() > 0 {
				e.pay = append(e.pay, v.Bytes())
			}
			return
		}
		for i := 0; i < v.Len(); i++ {
			e.value(p.elem, v.Index(i))
		}
	case reflect.Map:
		e.length(v)
		for it := v.MapRange(); it.Next(); {
			e.value(p.key, it.Key())
			e.value(p.elem, it.Value())
		}
	case reflect.Struct:
		for _, f := range p.fields {
			e.value(f.plan, v.Field(f.index))
		}
	case reflect.Interface:
		e.iface(v.Elem())
	}
}

// length writes a slice's or map's length with its presence bit.
func (e *encoder) length(v reflect.Value) {
	bits := uint64(v.Len()) << 1
	if !v.IsNil() {
		bits |= 1
	}
	e.hdr = binary.AppendUvarint(e.hdr, bits)
}

// AppendMessageHeader encodes env's message prefix — everything before
// the raw payload bytes — appending it to dst, and appends the
// zero-copy payload slices to payloads. A body of a type not registered
// is an error, and leaves dst and payloads as they were.
func AppendMessageHeader(dst []byte, payloads [][]byte, env Envelope) ([]byte, [][]byte, error) {
	dst = binary.AppendUvarint(dst, env.word())
	mark := len(dst)
	e := encoder{hdr: append(dst, 0, 0, 0, 0), pay: payloads}
	e.iface(reflect.ValueOf(env.Body))
	if e.err != nil {
		clear(e.pay[len(payloads):])
		return dst[:mark], payloads, e.err
	}
	binary.BigEndian.PutUint32(e.hdr[mark:], uint32(len(e.hdr)-mark-4))
	return e.hdr, e.pay, nil
}

// AppendMessage appends the complete serialized message (prefix plus
// payload bytes) to dst — the reference form used by tests, fuzzing,
// and benchmarks. The carrier itself writes the same bytes without
// copying the payloads.
func AppendMessage(dst []byte, env Envelope) ([]byte, error) {
	hdr, payloads, err := AppendMessageHeader(dst, nil, env)
	if err != nil {
		return dst, err
	}
	for _, p := range payloads {
		hdr = append(hdr, p...)
	}
	return hdr, nil
}

// WireHolder is implemented by a body whose []byte fields may alias
// the pooled receive buffer it was decoded from: the decoder hands it
// the buffer, for its ReleaseWire to give back.
type WireHolder interface{ HoldWire(*RecvBuf) }

// DecodeMessage parses one serialized message. When retained is true
// the body's []byte fields alias data, and so rb, which the body holds
// if it is a WireHolder (the consumer Releases it once done) and which
// is otherwise left to the garbage collector; rb may be nil when the
// caller manages the buffer itself.
func DecodeMessage(data []byte, rb *RecvBuf) (env Envelope, retained bool, err error) {
	c := cursor{data: data}
	word := c.uvarint()
	var header []byte
	if hl := c.take(4); !c.bad {
		header = c.take(int(binary.BigEndian.Uint32(hl)))
	}
	if c.bad {
		return Envelope{}, false, fmt.Errorf("%w: truncated envelope", ErrBadMessage)
	}
	d := decoder{hdr: cursor{data: header}, pay: cursor{data: data[c.off:]}}
	v, ptr := d.iface()
	if d.err == nil && !(d.hdr.done() && d.pay.done()) {
		d.err = ErrBadMessage
	}
	if d.err != nil {
		return Envelope{}, false, d.err
	}
	var body any
	if v.IsValid() {
		retained = len(d.pay.data) > 0
		if h, ok := v.Interface().(WireHolder); ok && retained && rb != nil {
			h.HoldWire(rb)
		}
		if body = v.Interface(); !ptr {
			body = v.Elem().Interface()
		}
	}
	return envelope(word, body), retained, nil
}

// decoder reads a value's header bytes from hdr and its []byte fields'
// bytes from pay. err is the first error that is not a malformed byte.
type decoder struct {
	hdr, pay cursor
	depth    int
	err      error
}

// iface reads an interface value: a new *T holding the value and the
// pointer bit, or an invalid Value for nil.
func (d *decoder) iface() (reflect.Value, bool) {
	w := d.hdr.uvarint()
	if w == 0 || d.hdr.bad {
		return reflect.Value{}, false
	}
	p := byID[w>>1]
	if p == nil {
		d.err = fmt.Errorf("%w: id %d", ErrUnknownType, w>>1)
	}
	if d.depth++; p == nil || d.depth > maxDepth {
		d.hdr.bad = true
		return reflect.Value{}, false
	}
	v := reflect.New(p.typ)
	d.value(p, v.Elem())
	d.depth--
	return v, w&1 != 0
}

func (d *decoder) value(p *plan, v reflect.Value) {
	if d.hdr.bad {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		b := d.hdr.uvarint() // one byte, as a uvarint below 2 is
		d.hdr.bad = d.hdr.bad || b > 1
		v.SetBool(b == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u := d.hdr.uvarint()
		x := int64(u >> 1) // zigzag, as binary.AppendVarint wrote it
		if u&1 != 0 {
			x = ^x
		}
		d.hdr.bad = d.hdr.bad || v.OverflowInt(x)
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := d.hdr.uvarint()
		d.hdr.bad = d.hdr.bad || v.OverflowUint(x)
		v.SetUint(x)
	case reflect.String:
		v.SetString(string(d.hdr.take(int(d.hdr.uvarint()))))
	case reflect.Slice:
		if p.elem == nil {
			if n, present := d.length(&d.pay, 1); present {
				v.SetBytes(d.pay.take(n))
			}
			return
		}
		n, present := d.length(&d.hdr, max(p.elem.min, 1))
		if !present {
			return
		}
		if n == 0 {
			v.Set(reflect.MakeSlice(p.typ, 0, 0)) // empty, not nil
			return
		}
		v.Grow(n) // in place: MakeSlice would allocate a header too
		v.SetLen(n)
		for i := 0; i < n; i++ {
			d.value(p.elem, v.Index(i))
		}
	case reflect.Map:
		n, present := d.length(&d.hdr, 1+p.elem.min)
		if !present {
			return
		}
		v.Set(reflect.MakeMapWithSize(p.typ, n))
		k, e := reflect.New(p.typ.Key()).Elem(), reflect.New(p.elem.typ).Elem()
		for i := 0; i < n; i++ {
			e.SetZero()
			d.value(p.key, k)
			d.value(p.elem, e)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for _, f := range p.fields {
			d.value(f.plan, v.Field(f.index))
		}
	case reflect.Interface:
		x, ptr := d.iface()
		if !x.IsValid() {
			return
		}
		if !ptr {
			x = x.Elem()
		}
		if !x.Type().Implements(p.typ) {
			d.hdr.bad = true
			return
		}
		v.Set(x)
	}
}

// length reads a slice's or map's length and presence bit. The length
// is bounded by what is left of sec, the section its elements are in,
// at per bytes each (a slice of elements that encode to nothing is
// still counted at one byte each), so a hostile count cannot force a
// huge allocation.
func (d *decoder) length(sec *cursor, per int) (int, bool) {
	bits := d.hdr.uvarint()
	n := bits >> 1
	if bits&1 == 0 || n > uint64(len(sec.data)-sec.off)/uint64(per) {
		d.hdr.bad = d.hdr.bad || bits != 0 // a length without presence, or too long
		return 0, false
	}
	return int(n), true
}

// cursor is a bounds-checked reader over one message section.
// Malformed input sets bad instead of panicking.
type cursor struct {
	data []byte
	off  int
	bad  bool
}

func (c *cursor) uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.off += n
	return v
}

// take returns the next n bytes as a subslice (aliasing data), capped
// so that an append to it cannot write past them.
func (c *cursor) take(n int) []byte {
	if c.bad || n < 0 || n > len(c.data)-c.off {
		c.bad = true
		return nil
	}
	b := c.data[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// done reports a fully consumed, well-formed section, so trailing
// garbage is refused.
func (c *cursor) done() bool { return !c.bad && c.off == len(c.data) }

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
