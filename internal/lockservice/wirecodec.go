package lockservice

import (
	"encoding/binary"
	"fmt"

	"frangipani/internal/rpc"
)

// Hand-rolled wire framing for the vectored lock messages — the
// high-volume clerk<->server traffic. The type-tag namespace is
// global to the codec; petal owns 1-8, the lock service owns 9-11.
// Everything else in this package (grants, revokes, session control)
// stays on the gob escape hatch: those messages are per-event, not
// per-batch, and their cost is noise.
//
// All three types are header-only (no zero-copy payload sections):
// they carry small fixed-width fields per lock, not bulk data.
const (
	TagAcquireBatch byte = 9
	TagReleaseBatch byte = 10
	TagWrongShard   byte = 11
)

func init() {
	rpc.RegisterWireDecoder(TagAcquireBatch, decodeAcquireBatch)
	rpc.RegisterWireDecoder(TagReleaseBatch, decodeReleaseBatch)
	rpc.RegisterWireDecoder(TagWrongShard, decodeWrongShard)
}

// WireTag implements rpc.WireMessage.
func (m AcquireBatch) WireTag() byte { return TagAcquireBatch }

// AppendWireHeader implements rpc.WireMessage.
func (m AcquireBatch) AppendWireHeader(dst []byte) []byte {
	dst = rpc.AppendString(dst, m.Clerk)
	dst = rpc.AppendString(dst, m.Table)
	dst = binary.AppendVarint(dst, m.MapEpoch)
	dst = binary.AppendUvarint(dst, m.Renew)
	dst = binary.AppendUvarint(dst, uint64(len(m.Reqs)))
	for _, r := range m.Reqs {
		dst = binary.AppendUvarint(dst, r.Lock)
		dst = append(dst, byte(r.Mode))
		dst = binary.AppendVarint(dst, r.Epoch)
	}
	return dst
}

// AppendWirePayloads implements rpc.WireMessage (header-only type).
func (m AcquireBatch) AppendWirePayloads(dst [][]byte) ([][]byte, int) { return dst, 0 }

// uvarintLen returns the encoded length of a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen returns the encoded length of a zigzag varint.
func varintLen(v int64) int {
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// WireSize reports the encoded size so the simulated network charges
// a batch for its real bytes: vectoring N requests into one message
// costs one base-message overhead, not N.
func (m AcquireBatch) WireSize() int {
	n := 2 + len(m.Clerk) + len(m.Table) + varintLen(m.MapEpoch) + uvarintLen(m.Renew) + uvarintLen(uint64(len(m.Reqs)))
	for _, r := range m.Reqs {
		n += uvarintLen(r.Lock) + 1 + varintLen(r.Epoch)
	}
	return n
}

func decodeAcquireBatch(header, payload []byte, rb *rpc.RecvBuf) (any, bool, error) {
	hc := rpc.Cursor{Data: header}
	m := AcquireBatch{
		Clerk:    hc.String(),
		Table:    hc.String(),
		MapEpoch: hc.Varint(),
		Renew:    hc.Uvarint(),
	}
	n := hc.Count(3) // lock uvarint + mode byte + epoch varint
	if n > 0 {
		m.Reqs = make([]BatchReq, 0, n)
	}
	for i := 0; i < n; i++ {
		m.Reqs = append(m.Reqs, BatchReq{
			Lock:  hc.Uvarint(),
			Mode:  Mode(hc.Byte()),
			Epoch: hc.Varint(),
		})
	}
	if !hc.Done() || len(payload) != 0 {
		return nil, false, fmt.Errorf("%w: acquire batch", rpc.ErrBadMessage)
	}
	return m, false, nil
}

// WireTag implements rpc.WireMessage.
func (m ReleaseBatch) WireTag() byte { return TagReleaseBatch }

// AppendWireHeader implements rpc.WireMessage.
func (m ReleaseBatch) AppendWireHeader(dst []byte) []byte {
	dst = rpc.AppendString(dst, m.Clerk)
	dst = rpc.AppendString(dst, m.Table)
	dst = binary.AppendVarint(dst, m.MapEpoch)
	dst = binary.AppendUvarint(dst, m.Renew)
	dst = binary.AppendUvarint(dst, uint64(len(m.Rels)))
	for _, r := range m.Rels {
		dst = binary.AppendUvarint(dst, r.Lock)
		dst = append(dst, byte(r.NewMode))
	}
	return dst
}

// AppendWirePayloads implements rpc.WireMessage (header-only type).
func (m ReleaseBatch) AppendWirePayloads(dst [][]byte) ([][]byte, int) { return dst, 0 }

// WireSize reports the encoded size (see AcquireBatch).
func (m ReleaseBatch) WireSize() int {
	n := 2 + len(m.Clerk) + len(m.Table) + varintLen(m.MapEpoch) + uvarintLen(m.Renew) + uvarintLen(uint64(len(m.Rels)))
	for _, r := range m.Rels {
		n += uvarintLen(r.Lock) + 1
	}
	return n
}

func decodeReleaseBatch(header, payload []byte, rb *rpc.RecvBuf) (any, bool, error) {
	hc := rpc.Cursor{Data: header}
	m := ReleaseBatch{
		Clerk:    hc.String(),
		Table:    hc.String(),
		MapEpoch: hc.Varint(),
		Renew:    hc.Uvarint(),
	}
	n := hc.Count(2) // lock uvarint + mode byte
	if n > 0 {
		m.Rels = make([]BatchRel, 0, n)
	}
	for i := 0; i < n; i++ {
		m.Rels = append(m.Rels, BatchRel{
			Lock:    hc.Uvarint(),
			NewMode: Mode(hc.Byte()),
		})
	}
	if !hc.Done() || len(payload) != 0 {
		return nil, false, fmt.Errorf("%w: release batch", rpc.ErrBadMessage)
	}
	return m, false, nil
}

// WireTag implements rpc.WireMessage.
func (m WrongShard) WireTag() byte { return TagWrongShard }

// AppendWireHeader implements rpc.WireMessage.
func (m WrongShard) AppendWireHeader(dst []byte) []byte {
	dst = rpc.AppendString(dst, m.Server)
	dst = rpc.AppendString(dst, m.Table)
	dst = binary.AppendVarint(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(m.Locks)))
	for _, lk := range m.Locks {
		dst = binary.AppendUvarint(dst, lk)
	}
	return dst
}

// AppendWirePayloads implements rpc.WireMessage (header-only type).
func (m WrongShard) AppendWirePayloads(dst [][]byte) ([][]byte, int) { return dst, 0 }

// WireSize reports the encoded size (see AcquireBatch).
func (m WrongShard) WireSize() int {
	n := 2 + len(m.Server) + len(m.Table) + varintLen(m.Epoch) + uvarintLen(uint64(len(m.Locks)))
	for _, lk := range m.Locks {
		n += uvarintLen(lk)
	}
	return n
}

func decodeWrongShard(header, payload []byte, rb *rpc.RecvBuf) (any, bool, error) {
	hc := rpc.Cursor{Data: header}
	m := WrongShard{
		Server: hc.String(),
		Table:  hc.String(),
		Epoch:  hc.Varint(),
	}
	n := hc.Count(1)
	if n > 0 {
		m.Locks = make([]uint64, 0, n)
	}
	for i := 0; i < n; i++ {
		m.Locks = append(m.Locks, hc.Uvarint())
	}
	if !hc.Done() || len(payload) != 0 {
		return nil, false, fmt.Errorf("%w: wrong-shard nack", rpc.ErrBadMessage)
	}
	return m, false, nil
}
