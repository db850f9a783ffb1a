package petal

import (
	"encoding/binary"
	"fmt"

	"frangipani/internal/obs"
	"frangipani/internal/rpc"
)

// Hand-rolled wire codec for the Petal data path. The four
// high-volume message types — ReadV/WriteV requests and replies —
// implement rpc.WireMessage and register rpc decoders, so
// on the TCP carrier they bypass gob entirely: headers are appended
// into a small pooled buffer, payload []byte fields are handed to the
// carrier as the caller's own slices (zero-copy encode), and decode
// slices them back out of the single pooled receive buffer
// (zero-copy decode). Everything else (admin, repair, Paxos) stays on
// the gob escape hatch.
//
// Data fields encode their length as uvarint(len<<1 | present) so a
// nil slice (a hole in a sparse read) round-trips distinct from an
// empty one. Decoded payload-carrying messages hold the pooled
// receive buffer and return it via ReleaseWire once the consumer has
// copied the data out.

// Wire type tags (tag 0 is rpc's gob escape hatch). Tags 1, 2, 5 and
// 6 belonged to the retired single-extent messages and stay unused,
// so a frame from an old peer is refused, not misread; the lock
// service owns 9-11.
const (
	TagReadVReq   byte = 3
	TagReadVResp  byte = 4
	TagWriteVReq  byte = 7
	TagWriteVResp byte = 8
)

// appendDataLen appends uvarint(len<<1 | present) for a data slice.
func appendDataLen(dst []byte, data []byte, present bool) []byte {
	bits := uint64(len(data)) << 1
	if present {
		bits |= 1
	}
	return binary.AppendUvarint(dst, bits)
}

// takeData reads a presence-tagged data length from the header cursor
// and slices the bytes from the payload cursor. A nil slice comes
// back for absent data.
func takeData(hc, pc *rpc.Cursor) []byte {
	bits := hc.Uvarint()
	if hc.Bad {
		return nil
	}
	if bits&1 == 0 {
		if bits != 0 {
			hc.Bad = true // length without presence is malformed
		}
		return nil
	}
	return pc.Take(int(bits >> 1))
}

// appendCtx appends an operation context: the two requests' headers
// begin with it.
func appendCtx(dst []byte, c obs.Ctx) []byte {
	dst = binary.AppendUvarint(dst, c.Trace)
	dst = binary.AppendUvarint(dst, c.Span)
	return rpc.AppendString(dst, c.Principal)
}

func takeCtx(hc *rpc.Cursor) obs.Ctx {
	return obs.Ctx{Trace: hc.Uvarint(), Span: hc.Uvarint(), Principal: hc.String()}
}

// ---- ReadVReq ----

// WireTag implements rpc.WireMessage.
func (r ReadVReq) WireTag() byte { return TagReadVReq }

// AppendWireHeader implements rpc.WireMessage.
func (r ReadVReq) AppendWireHeader(dst []byte) []byte {
	dst = appendCtx(dst, r.Ctx)
	dst = rpc.AppendString(dst, string(r.VDisk))
	dst = binary.AppendUvarint(dst, uint64(len(r.Extents)))
	for _, e := range r.Extents {
		dst = binary.AppendVarint(dst, e.Chunk)
		dst = binary.AppendUvarint(dst, uint64(e.Off))
		dst = binary.AppendUvarint(dst, uint64(e.Len))
	}
	return dst
}

// AppendWirePayloads implements rpc.WireMessage.
func (r ReadVReq) AppendWirePayloads(dst [][]byte) ([][]byte, int) { return dst, 0 }

func decodeReadVReq(header, payload []byte, _ *rpc.RecvBuf) (any, bool, error) {
	hc := rpc.Cursor{Data: header}
	r := &ReadVReq{Ctx: takeCtx(&hc), VDisk: VDiskID(hc.String())}
	n := hc.Count(3)
	if !hc.Bad && n > 0 {
		r.Extents = make([]ReadVExtent, n)
		for i := range r.Extents {
			r.Extents[i].Chunk = hc.Varint()
			r.Extents[i].Off = int(hc.Uvarint())
			r.Extents[i].Len = int(hc.Uvarint())
		}
	}
	if !hc.Done() || len(payload) != 0 {
		return nil, false, fmt.Errorf("%w: ReadVReq", rpc.ErrBadMessage)
	}
	return r, false, nil
}

// ---- ReadVResp ----

// WireTag implements rpc.WireMessage.
func (r ReadVResp) WireTag() byte { return TagReadVResp }

// AppendWireHeader implements rpc.WireMessage.
func (r ReadVResp) AppendWireHeader(dst []byte) []byte {
	dst = rpc.AppendBool(dst, r.OK)
	dst = rpc.AppendString(dst, r.Err)
	dst = binary.AppendUvarint(dst, uint64(len(r.Results)))
	for _, e := range r.Results {
		dst = rpc.AppendBool(dst, e.OK)
		dst = rpc.AppendString(dst, e.Err)
		dst = appendDataLen(dst, e.Data, e.Data != nil)
	}
	return dst
}

// AppendWirePayloads implements rpc.WireMessage.
func (r ReadVResp) AppendWirePayloads(dst [][]byte) ([][]byte, int) {
	total := 0
	for _, e := range r.Results {
		if len(e.Data) > 0 {
			dst = append(dst, e.Data)
			total += len(e.Data)
		}
	}
	return dst, total
}

func decodeReadVResp(header, payload []byte, rb *rpc.RecvBuf) (any, bool, error) {
	hc := rpc.Cursor{Data: header}
	pc := rpc.Cursor{Data: payload}
	r := ReadVResp{OK: hc.Bool(), Err: hc.String()}
	n := hc.Count(3)
	if !hc.Bad && n > 0 {
		r.Results = make([]ReadVExtentResult, n)
		for i := range r.Results {
			r.Results[i].OK = hc.Bool()
			r.Results[i].Err = hc.String()
			r.Results[i].Data = takeData(&hc, &pc)
		}
	}
	if !hc.Done() || !pc.Done() {
		return nil, false, fmt.Errorf("%w: ReadVResp", rpc.ErrBadMessage)
	}
	if len(payload) > 0 {
		r.wb = rb
		return r, true, nil
	}
	return r, false, nil
}

// ReleaseWire implements rpc.WireReleaser: it returns the pooled
// buffer the per-extent Data fields alias. Idempotent.
func (r ReadVResp) ReleaseWire() { r.wb.Release() }

// ---- WriteVReq ----

// WireTag implements rpc.WireMessage.
func (w WriteVReq) WireTag() byte { return TagWriteVReq }

// AppendWireHeader implements rpc.WireMessage.
func (w WriteVReq) AppendWireHeader(dst []byte) []byte {
	dst = appendCtx(dst, w.Ctx)
	dst = rpc.AppendString(dst, string(w.VDisk))
	dst = rpc.AppendBool(dst, w.Forwarded)
	dst = binary.AppendVarint(dst, w.ExpireAt)
	dst = binary.AppendVarint(dst, w.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(w.Extents)))
	for _, e := range w.Extents {
		dst = binary.AppendVarint(dst, e.Chunk)
		dst = binary.AppendUvarint(dst, uint64(e.Off))
		dst = appendDataLen(dst, e.Data, e.Data != nil)
	}
	return dst
}

// AppendWirePayloads implements rpc.WireMessage.
func (w WriteVReq) AppendWirePayloads(dst [][]byte) ([][]byte, int) {
	total := 0
	for _, e := range w.Extents {
		if len(e.Data) > 0 {
			dst = append(dst, e.Data)
			total += len(e.Data)
		}
	}
	return dst, total
}

func decodeWriteVReq(header, payload []byte, rb *rpc.RecvBuf) (any, bool, error) {
	hc := rpc.Cursor{Data: header}
	pc := rpc.Cursor{Data: payload}
	w := &WriteVReq{Ctx: takeCtx(&hc), VDisk: VDiskID(hc.String())}
	w.Forwarded = hc.Bool()
	w.ExpireAt = hc.Varint()
	w.Epoch = hc.Varint()
	n := hc.Count(3)
	if !hc.Bad && n > 0 {
		w.Extents = make([]WriteVExtent, n)
		for i := range w.Extents {
			w.Extents[i].Chunk = hc.Varint()
			w.Extents[i].Off = int(hc.Uvarint())
			w.Extents[i].Data = takeData(&hc, &pc)
		}
	}
	if !hc.Done() || !pc.Done() {
		return nil, false, fmt.Errorf("%w: WriteVReq", rpc.ErrBadMessage)
	}
	if len(payload) > 0 {
		w.wb = rb
		return w, true, nil
	}
	return w, false, nil
}

// ReleaseWire implements rpc.WireReleaser: it returns the pooled
// receive buffer the per-extent Data fields alias. Idempotent.
func (w WriteVReq) ReleaseWire() { w.wb.Release() }

// ---- WriteVResp ----

// WireTag implements rpc.WireMessage.
func (w WriteVResp) WireTag() byte { return TagWriteVResp }

// AppendWireHeader implements rpc.WireMessage.
func (w WriteVResp) AppendWireHeader(dst []byte) []byte {
	dst = rpc.AppendBool(dst, w.OK)
	return rpc.AppendString(dst, w.Err)
}

// AppendWirePayloads implements rpc.WireMessage.
func (w WriteVResp) AppendWirePayloads(dst [][]byte) ([][]byte, int) { return dst, 0 }

func decodeWriteVResp(header, payload []byte, _ *rpc.RecvBuf) (any, bool, error) {
	hc := rpc.Cursor{Data: header}
	w := WriteVResp{OK: hc.Bool(), Err: hc.String()}
	if !hc.Done() || len(payload) != 0 {
		return nil, false, fmt.Errorf("%w: WriteVResp", rpc.ErrBadMessage)
	}
	return w, false, nil
}

func init() {
	rpc.RegisterWireDecoder(TagReadVReq, decodeReadVReq)
	rpc.RegisterWireDecoder(TagReadVResp, decodeReadVResp)
	rpc.RegisterWireDecoder(TagWriteVReq, decodeWriteVReq)
	rpc.RegisterWireDecoder(TagWriteVResp, decodeWriteVResp)
}
