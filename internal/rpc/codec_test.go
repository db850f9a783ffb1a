// Codec tests live in the external rpc_test package so they can
// exercise the codec against the real message types of internal/petal
// and internal/lockservice (which import rpc, so the internal test
// package could not).
package rpc_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"frangipani/internal/lockservice"
	"frangipani/internal/obs"
	"frangipani/internal/paxos"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
)

// sampleEnvelopes covers the data path's types in both shapes, presence
// edge cases (nil vs empty data, holes), an interface field and a nil
// body.
func sampleEnvelopes() []rpc.Envelope {
	return []rpc.Envelope{
		// One-extent messages: what every small read and write is.
		{ID: 1, Body: &petal.ReadVReq{Ctx: obs.Ctx{Trace: 99, Span: 7, Principal: "tenant-7"}, VDisk: "vd", Extents: []petal.ReadVExtent{{Chunk: 7, Off: 512, Len: 4096}}}},
		{ID: 1, IsReply: true, Body: &petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: []byte("hello")}}}},
		{ID: 2, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: nil}}}},      // hole, by value
		{ID: 3, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: []byte{}}}}}, // present, empty
		{ID: 4, IsReply: true, Body: &petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{Err: "petal: boom"}}}},      // extent error
		{ID: 4, IsReply: true, Body: &petal.ReadVResp{OK: false, Err: "petal: no such virtual disk"}},                           // batch error
		{ID: 5, Body: &petal.ReadVReq{VDisk: "vd", Extents: []petal.ReadVExtent{{Chunk: 1, Off: 0, Len: 8}, {Chunk: 2, Off: 100, Len: 9}}}},
		{ID: 5, IsReply: true, Body: &petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{
			{OK: true, Data: []byte("abc")},
			{OK: true},                        // hole
			{OK: false, Err: "crc"},           // extent-local failure
			{OK: true, Data: []byte{1, 2, 3}}, // more data after failure
		}}},
		{ID: 6, Body: &petal.WriteVReq{Ctx: obs.Ctx{Trace: 1, Span: 2}, VDisk: "vd", Forwarded: true, ExpireAt: -5, Epoch: 3, Extents: []petal.WriteVExtent{
			{Chunk: 9, Off: 1024, Data: []byte("payload")},
		}}},
		{ID: 6, IsReply: true, Body: petal.WriteVResp{OK: true}},
		{ID: 7, Body: petal.WriteVReq{VDisk: "vd", ExpireAt: 11, Epoch: 2, Extents: []petal.WriteVExtent{ // by value
			{Chunk: 0, Off: 0, Data: []byte("aa")},
			{Chunk: 1, Off: 512, Data: nil},
			{Chunk: 1, Off: 600, Data: []byte{9}},
		}}},
		{ID: 7, IsReply: true, Body: petal.WriteVResp{OK: false, Err: "petal: write rejected, lease expired"}},
		// Control traffic: an empty struct, a cast, an interface field,
		// empty and nil slices, and no body at all.
		{ID: 8, Body: paxos.StateReq{}},
		{Body: petal.AdminResp{OK: true}}, // cast (ID 0)
		{ID: 9, Body: petal.AdminReq{Cmd: petal.CmdSnapshot{Parent: "vd", Snap: "vd-snap"}}},
		{ID: 9, Body: &petal.AdminReq{}},
		{Body: lockservice.WrongShard{Server: "ls0", Table: "fs", Epoch: 2, Locks: []uint64{}}},
		{Body: &lockservice.AcquireBatch{Clerk: "ws1", Table: "fs", Reqs: []lockservice.BatchReq{{Lock: 1 << 60, Mode: lockservice.Exclusive, Epoch: -4}}}},
		{ID: 10, IsReply: true},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for i, env := range sampleEnvelopes() {
		msg, err := rpc.AppendMessage(nil, env)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, _, err := rpc.DecodeMessage(msg, nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.ID != env.ID || got.IsReply != env.IsReply {
			t.Fatalf("case %d: envelope mismatch: got %+v want %+v", i, got, env)
		}
		if !reflect.DeepEqual(got.Body, env.Body) {
			t.Fatalf("case %d: body mismatch:\n got %#v\nwant %#v", i, got.Body, env.Body)
		}
	}
}

// TestCodecTruncation checks every prefix of every valid message
// either decodes cleanly or errors — never panics, never reads out of
// bounds.
func TestCodecTruncation(t *testing.T) {
	for i, env := range sampleEnvelopes() {
		msg, err := rpc.AppendMessage(nil, env)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		for n := 0; n < len(msg); n++ {
			if _, _, err := rpc.DecodeMessage(msg[:n], nil); err == nil {
				// A strict prefix decoding successfully would mean the
				// framing is ambiguous.
				t.Fatalf("case %d: truncated message (%d/%d bytes) decoded without error", i, n, len(msg))
			}
		}
	}
}

// TestCodecEncodeRefusesUnregistered: a body of a type nobody
// registered is an encode error, not a frame the peer cannot read.
func TestCodecEncodeRefusesUnregistered(t *testing.T) {
	type unregistered struct{ N int }
	for _, body := range []any{unregistered{1}, petal.AdminReq{Cmd: unregistered{2}}, (*petal.WriteVReq)(nil)} {
		if msg, err := rpc.AppendMessage(nil, rpc.Envelope{ID: 1, Body: body}); err == nil {
			t.Errorf("%#v encoded to %v", body, msg)
		}
	}
}

// frame builds a frame by hand: the envelope word, the header length,
// then header and payload.
func frame(word uint64, header, payload []byte) []byte {
	msg := binary.AppendUvarint(nil, word)
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(header)))
	return append(append(msg, header...), payload...)
}

// unknownTypeFrames are frames whose type id nobody registered: a
// stray first byte, an unknown id at the top and one inside an
// interface field.
func unknownTypeFrames() [][]byte {
	unknown := binary.AppendUvarint(nil, 0x7fff_fff0<<1)
	admin, _ := rpc.AppendMessage(nil, rpc.Envelope{ID: 5, Body: petal.AdminReq{}})
	adminWord := admin[5 : len(admin)-1] // AdminReq's type word; then its nil Cmd
	return [][]byte{
		{0xC8, 1, 2, 3},
		frame(10, unknown, nil),
		frame(10, append(append([]byte(nil), adminWord...), unknown...), nil),
	}
}

// retiredTagFrames are frames of the codec this one replaced, which put
// a type tag before the envelope: tag, id<<1, header length, header.
// Tag 3 is a ReadVReq and tag 7 a WriteVReq.
func retiredTagFrames() [][]byte {
	return [][]byte{
		{3, 10, 0, 0, 0, 16, 0xac, 0x02, 7, 3, 't', '-', '1', 2, 'v', 'd', 1, 14, 0x80, 0x04, 0x80, 0x20},
		{3, 10, 0, 0, 0, 7, 0, 0, 0, 2, 'v', 'd', 0},
		{7, 12, 0, 0, 0, 18, 0xac, 0x02, 7, 3, 't', '-', '1', 2, 'v', 'd', 1, 9, 6, 1, 18, 0x80, 0x08, 7, 'p', 'a', 'y'},
	}
}

// oldEnvelopeFrames are frames of the replaced codec from when the
// envelope carried the context: tag, id, trace, span, principal, header
// length, header.
func oldEnvelopeFrames() [][]byte {
	return [][]byte{
		{3, 10, 0xac, 0x02, 7, 3, 't', '-', '1', 0, 0, 0, 9, 2, 'v', 'd', 1, 14, 0x80, 0x04, 0x80, 0x20},
		{7, 12, 0, 0, 0, 0, 0, 0, 8, 2, 'v', 'd', 0, 0, 0, 0, 0},
	}
}

// refusedFrames are every frame the decoder must refuse: unknown type
// ids, the frames of the replaced codec, and interface values nested
// past the bound.
func refusedFrames() [][]byte {
	out := append(unknownTypeFrames(), retiredTagFrames()...)
	out = append(out, oldEnvelopeFrames()...)
	// AdminReq{Cmd: AdminReq{Cmd: ...}}, deeper than the decoder goes.
	var env rpc.Envelope
	for i := 0; i < 40; i++ {
		env.Body = petal.AdminReq{Cmd: env.Body}
	}
	deep, _ := rpc.AppendMessage(nil, env)
	return append(out, deep)
}

// assertRefused fails unless msg is refused as malformed or of an
// unknown type.
func assertRefused(t *testing.T, what string, msg []byte) {
	t.Helper()
	env, _, err := rpc.DecodeMessage(msg, nil)
	if err == nil {
		t.Fatalf("%s decoded to %#v", what, env)
	}
	if !errors.Is(err, rpc.ErrUnknownType) && !errors.Is(err, rpc.ErrBadMessage) {
		t.Fatalf("%s: err = %v, want ErrUnknownType or ErrBadMessage", what, err)
	}
}

// TestCodecUnknownTag: a frame the decoder cannot place — a type id
// nobody registered, a frame of the codec this one replaced, interface
// values nested past the bound — is refused with an error, never
// misread as another message and never a panic.
func TestCodecUnknownTag(t *testing.T) {
	for i, msg := range refusedFrames() {
		assertRefused(t, fmt.Sprintf("frame %d", i), msg)
	}
	if _, _, err := rpc.DecodeMessage(unknownTypeFrames()[1], nil); !errors.Is(err, rpc.ErrUnknownType) {
		t.Fatalf("unregistered type id: err = %v, want ErrUnknownType", err)
	}
	if _, _, err := rpc.DecodeMessage(unknownTypeFrames()[2], nil); !errors.Is(err, rpc.ErrUnknownType) {
		t.Fatalf("unregistered type id in an interface field: err = %v, want ErrUnknownType", err)
	}
}

// TestCodecRetiredTags: the replaced codec framed each message behind a
// type tag, 0 for gob and 1 to 7 for the hand-coded types. An otherwise
// well-formed frame from a peer that still speaks it, under any of
// those tags, must be refused, not panic and not be misread as another
// message.
func TestCodecRetiredTags(t *testing.T) {
	for i, frame := range retiredTagFrames() {
		for tag := byte(0); tag <= 7; tag++ {
			msg := append([]byte{tag}, frame[1:]...)
			assertRefused(t, fmt.Sprintf("frame %d under retired tag %d", i, tag), msg)
		}
	}
}

// TestCodecOldEnvelopeLayout: a frame from a peer that still carries the
// context in the envelope is refused — not misread as a request for
// another vdisk or extent, and never a panic.
func TestCodecOldEnvelopeLayout(t *testing.T) {
	for i, msg := range oldEnvelopeFrames() {
		assertRefused(t, fmt.Sprintf("frame %d", i), msg)
	}
}

// TestCodecGoldenRequests pins the bytes of the two requests that carry
// an operation's context: the envelope word id<<1|reply, a 4-byte header
// length, the header — the body's type word type<<1|pointer, then its
// fields in declaration order, the context first (trace, span,
// principal) — then the raw payload. A peer built from another commit
// must produce exactly these.
func TestCodecGoldenRequests(t *testing.T) {
	ctx := obs.Ctx{Trace: 300, Span: 7, Principal: "t-1"}
	for _, c := range []struct {
		name string
		env  rpc.Envelope
		want []byte
	}{
		{"ReadVReq", rpc.Envelope{ID: 5, Body: &petal.ReadVReq{Ctx: ctx, VDisk: "vd", Extents: []petal.ReadVExtent{{Chunk: 7, Off: 512, Len: 4096}}}}, []byte{
			10, 0, 0, 0, 20, // id 5, header length
			0x91, 0xdd, 0xf5, 0x1d, // ReadVReq's type id, sent as a pointer
			0xac, 0x02, 7, 3, 't', '-', '1', // trace 300, span 7, principal
			2, 'v', 'd', 3, // vdisk, one extent (1<<1 | present)
			14, 0x80, 0x08, 0x80, 0x40, // chunk 7, off 512, len 4096 (zigzag)
		}},
		{"ReadVReq for no operation", rpc.Envelope{ID: 5, Body: &petal.ReadVReq{VDisk: "vd"}}, []byte{
			10, 0, 0, 0, 11,
			0x91, 0xdd, 0xf5, 0x1d,
			0, 0, 0, // no trace, no span, no principal
			2, 'v', 'd', 0, // vdisk, no extents (nil)
		}},
		{"WriteVReq", rpc.Envelope{ID: 6, Body: &petal.WriteVReq{Ctx: ctx, VDisk: "vd", Forwarded: true, ExpireAt: -5, Epoch: 3,
			Extents: []petal.WriteVExtent{{Chunk: 9, Off: 1024, Data: []byte("pay")}}}}, []byte{
			12, 0, 0, 0, 22,
			0xf5, 0xc1, 0x89, 0x5f, // WriteVReq's type id, sent as a pointer
			0xac, 0x02, 7, 3, 't', '-', '1',
			2, 'v', 'd', 3, // vdisk, one extent
			18, 0x80, 0x10, 7, // chunk 9, off 1024 (zigzag), data 3<<1 | present
			1, 9, 6, // forwarded, expire -5, epoch 3 (zigzag)
			'p', 'a', 'y',
		}},
	} {
		got, err := rpc.AppendMessage(nil, c.env)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: encoded\n %#v\nwant\n %#v", c.name, got, c.want)
		}
		env, _, err := rpc.DecodeMessage(c.want, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if env.ID != c.env.ID || !reflect.DeepEqual(env.Body, c.env.Body) {
			t.Fatalf("%s: decoded %#v", c.name, env)
		}
	}
}

// FuzzCodecRoundTrip throws arbitrary bytes at the decoder: malformed
// input (truncated frames, oversized lengths, unknown type ids, deep
// nesting) must error, never panic; input that does decode must
// re-encode and decode to the same value.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		msg, err := rpc.AppendMessage(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
		if len(msg) > 3 {
			f.Add(msg[:len(msg)-3]) // truncated frame
		}
	}
	f.Add([]byte{})                                                  // empty
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // oversized header length
	f.Add(frame(1, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, nil))
	f.Add(frame(10, []byte{0x91, 0xdd, 0xf5, 0x1d, 0xac, 0x02, 7, 9, 't'}, nil)) // principal runs past the header
	for _, msg := range refusedFrames() {
		f.Add(msg)
	}
	for _, body := range oneOfEveryType() {
		msg, err := rpc.AppendMessage(nil, rpc.Envelope{ID: 3, Body: body})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, _, err := rpc.DecodeMessage(data, nil)
		if err != nil {
			return // malformed input rejected: the property we want
		}
		msg, err := rpc.AppendMessage(nil, env)
		if err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		env2, _, err := rpc.DecodeMessage(msg, nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(env2, env) {
			t.Fatalf("round trip changed value:\n got %#v\nwant %#v", env2, env)
		}
	})
}
