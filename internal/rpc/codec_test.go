// Codec tests live in the external rpc_test package so they can
// exercise the hand-rolled framing against the real hot-path message
// types from internal/petal (petal imports rpc, so the internal test
// package could not).
package rpc_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"frangipani/internal/obs"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
)

// sampleEnvelopes covers every fast-codec type plus the gob escape
// hatch, with presence edge cases (nil vs empty data, holes).
func sampleEnvelopes() []rpc.Envelope {
	return []rpc.Envelope{
		// One-extent messages: what every small read and write is.
		{ID: 1, Body: &petal.ReadVReq{Ctx: obs.Ctx{Trace: 99, Span: 7, Principal: "tenant-7"}, VDisk: "vd", Extents: []petal.ReadVExtent{{Chunk: 7, Off: 512, Len: 4096}}}},
		{ID: 1, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: []byte("hello")}}}},
		{ID: 2, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: nil}}}},      // hole
		{ID: 3, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: []byte{}}}}}, // present, empty
		{ID: 4, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{Err: "petal: boom"}}}},       // extent error
		{ID: 4, IsReply: true, Body: petal.ReadVResp{OK: false, Err: "petal: no such virtual disk"}},                            // batch error
		{ID: 5, Body: &petal.ReadVReq{VDisk: "vd", Extents: []petal.ReadVExtent{{Chunk: 1, Off: 0, Len: 8}, {Chunk: 2, Off: 100, Len: 9}}}},
		{ID: 5, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{
			{OK: true, Data: []byte("abc")},
			{OK: true},                        // hole
			{OK: false, Err: "crc"},           // extent-local failure
			{OK: true, Data: []byte{1, 2, 3}}, // more data after failure
		}}},
		{ID: 6, Body: &petal.WriteVReq{Ctx: obs.Ctx{Trace: 1, Span: 2}, VDisk: "vd", Forwarded: true, ExpireAt: -5, Epoch: 3, Extents: []petal.WriteVExtent{
			{Chunk: 9, Off: 1024, Data: []byte("payload")},
		}}},
		{ID: 6, IsReply: true, Body: petal.WriteVResp{OK: true}},
		{ID: 7, Body: &petal.WriteVReq{VDisk: "vd", ExpireAt: 11, Epoch: 2, Extents: []petal.WriteVExtent{
			{Chunk: 0, Off: 0, Data: []byte("aa")},
			{Chunk: 1, Off: 512, Data: nil},
			{Chunk: 1, Off: 600, Data: []byte{9}},
		}}},
		{ID: 7, IsReply: true, Body: petal.WriteVResp{OK: false, Err: "petal: write rejected, lease expired"}},
		// gob escape hatch: a control message with no fast codec.
		{ID: 8, Body: petal.StateReq{}},
		{Body: petal.AdminResp{OK: true}}, // cast (ID 0)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for i, env := range sampleEnvelopes() {
		msg, err := rpc.AppendMessage(nil, env)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		body, _, err := rpc.DecodeMessage(msg, nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		got, ok := body.(rpc.Envelope)
		if !ok {
			t.Fatalf("case %d: decoded %T, want Envelope", i, body)
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

func TestCodecUnknownTag(t *testing.T) {
	if _, _, err := rpc.DecodeMessage([]byte{0xC8, 1, 2, 3}, nil); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
}

// TestCodecRetiredTags: tags 1, 2, 5 and 6 carried the single-extent
// Petal messages. An otherwise well-formed frame from a peer that
// still speaks them must be refused as an unknown tag, not panic and
// not be misread as another type.
func TestCodecRetiredTags(t *testing.T) {
	msg, err := rpc.AppendMessage(nil, sampleEnvelopes()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []byte{1, 2, 5, 6} {
		msg[0] = tag
		if _, _, err := rpc.DecodeMessage(msg, nil); !errors.Is(err, rpc.ErrUnknownTag) {
			t.Fatalf("frame with retired tag %d: err = %v, want ErrUnknownTag", tag, err)
		}
	}
}

// TestCodecGoldenRequests pins the bytes of the two requests that carry
// an operation's context: tag, id<<1|reply, a 4-byte header length, then
// the header — context first (trace, span, principal), the request's own
// fields after it — then the raw payload. A peer built from another
// commit must produce exactly these.
func TestCodecGoldenRequests(t *testing.T) {
	ctx := obs.Ctx{Trace: 300, Span: 7, Principal: "t-1"}
	for _, c := range []struct {
		name string
		env  rpc.Envelope
		want []byte
	}{
		{"ReadVReq", rpc.Envelope{ID: 5, Body: &petal.ReadVReq{Ctx: ctx, VDisk: "vd", Extents: []petal.ReadVExtent{{Chunk: 7, Off: 512, Len: 4096}}}}, []byte{
			3, 10, 0, 0, 0, 16, // tag, id 5, header length
			0xac, 0x02, 7, 3, 't', '-', '1', // trace 300, span 7, principal
			2, 'v', 'd', 1, // vdisk, one extent
			14, 0x80, 0x04, 0x80, 0x20, // chunk 7 (zigzag), off 512, len 4096
		}},
		{"ReadVReq for no operation", rpc.Envelope{ID: 5, Body: &petal.ReadVReq{VDisk: "vd"}}, []byte{
			3, 10, 0, 0, 0, 7,
			0, 0, 0, // no trace, no span, no principal
			2, 'v', 'd', 0,
		}},
		{"WriteVReq", rpc.Envelope{ID: 6, Body: &petal.WriteVReq{Ctx: ctx, VDisk: "vd", Forwarded: true, ExpireAt: -5, Epoch: 3,
			Extents: []petal.WriteVExtent{{Chunk: 9, Off: 1024, Data: []byte("pay")}}}}, []byte{
			7, 12, 0, 0, 0, 18,
			0xac, 0x02, 7, 3, 't', '-', '1',
			2, 'v', 'd', 1, 9, 6, 1, // vdisk, forwarded, expire -5 (zigzag), epoch 3 (zigzag), one extent
			18, 0x80, 0x08, 7, // chunk 9 (zigzag), off 1024, len 3<<1|present
			'p', 'a', 'y',
		}},
	} {
		got, err := rpc.AppendMessage(nil, c.env)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: encoded\n %v\nwant\n %v", c.name, got, c.want)
		}
		body, _, err := rpc.DecodeMessage(c.want, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if env := body.(rpc.Envelope); env.ID != c.env.ID || !reflect.DeepEqual(env.Body, c.env.Body) {
			t.Fatalf("%s: decoded %#v", c.name, env)
		}
	}
}

// oldLayoutFrame frames body the way the codec did when the envelope
// carried the context: tag, id, trace, span, principal, header length,
// then a header that does not begin with a context.
func oldLayoutFrame(tag byte, id uint64, ctx obs.Ctx, header []byte) []byte {
	msg := binary.AppendUvarint([]byte{tag}, id<<1)
	msg = binary.AppendUvarint(msg, ctx.Trace)
	msg = binary.AppendUvarint(msg, ctx.Span)
	msg = rpc.AppendString(msg, ctx.Principal)
	msg = binary.BigEndian.AppendUint32(msg, uint32(len(header)))
	return append(msg, header...)
}

// oldLayoutFrames are a ReadVReq and a WriteVReq from a peer that still
// puts the context in the envelope, each once inside a traced operation
// and once outside any.
func oldLayoutFrames() [][]byte {
	readHdr := []byte{2, 'v', 'd', 1, 14, 0x80, 0x04, 0x80, 0x20}
	writeHdr := []byte{2, 'v', 'd', 0, 0, 0, 0, 0}
	var out [][]byte
	for _, ctx := range []obs.Ctx{{}, {Trace: 300, Span: 7, Principal: "t-1"}, {Trace: 1, Span: 1}} {
		out = append(out,
			oldLayoutFrame(petal.TagReadVReq, 5, ctx, readHdr),
			oldLayoutFrame(petal.TagWriteVReq, 6, ctx, writeHdr))
	}
	return out
}

// TestCodecOldEnvelopeLayout: a frame from a peer that still carries the
// context in the envelope is refused as malformed — not misread as a
// request for another vdisk or extent, and never a panic.
func TestCodecOldEnvelopeLayout(t *testing.T) {
	for i, msg := range oldLayoutFrames() {
		if body, _, err := rpc.DecodeMessage(msg, nil); !errors.Is(err, rpc.ErrBadMessage) {
			t.Fatalf("frame %d: decoded to %#v, err = %v; want ErrBadMessage", i, body, err)
		}
	}
}

// FuzzCodecRoundTrip throws arbitrary bytes at the decoder: malformed
// input (truncated frames, oversized lengths, unknown type tags) must
// error, never panic; input that does decode must re-encode and
// decode to the same value.
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
	f.Add([]byte{})                                                              // empty
	f.Add([]byte{0xC8, 0xFF, 0xFF})                                              // unknown tag
	f.Add([]byte{3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // oversized varint
	f.Add([]byte{7, 1, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F})                            // oversized header length
	f.Add([]byte{3, 10, 0, 0, 0, 5, 0xac, 0x02, 7, 9, 't'})                      // context's principal runs past the header
	for _, msg := range oldLayoutFrames() {
		f.Add(msg) // context still in the envelope
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, _, err := rpc.DecodeMessage(data, nil)
		if err != nil {
			return // malformed input rejected: the property we want
		}
		env, ok := body.(rpc.Envelope)
		if !ok {
			return // gob escape hatch can carry arbitrary registered values
		}
		if _, ok := env.Body.(rpc.WireMessage); !ok {
			return
		}
		// Accepted fast-path input must round-trip.
		msg, err := rpc.AppendMessage(nil, env)
		if err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		body2, _, err := rpc.DecodeMessage(msg, nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(body2, body) {
			t.Fatalf("round trip changed value:\n got %#v\nwant %#v", body2, body)
		}
	})
}
