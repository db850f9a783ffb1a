// Codec tests live in the external rpc_test package so they can
// exercise the hand-rolled framing against the real hot-path message
// types from internal/petal (petal imports rpc, so the internal test
// package could not).
package rpc_test

import (
	"errors"
	"reflect"
	"testing"

	"frangipani/internal/petal"
	"frangipani/internal/rpc"
)

// sampleEnvelopes covers every fast-codec type plus the gob escape
// hatch, with presence edge cases (nil vs empty data, holes).
func sampleEnvelopes() []rpc.Envelope {
	return []rpc.Envelope{
		// One-extent messages: what every small read and write is.
		{ID: 1, Body: petal.ReadVReq{VDisk: "vd", Extents: []petal.ReadVExtent{{Chunk: 7, Off: 512, Len: 4096}}}},
		{ID: 1, IsReply: true, Trace: 99, Span: 7, Principal: "tenant-7", Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: []byte("hello")}}}},
		{ID: 2, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: nil}}}},      // hole
		{ID: 3, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{OK: true, Data: []byte{}}}}}, // present, empty
		{ID: 4, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{{Err: "petal: boom"}}}},       // extent error
		{ID: 4, IsReply: true, Body: petal.ReadVResp{OK: false, Err: "petal: no such virtual disk"}},                            // batch error
		{ID: 5, Body: petal.ReadVReq{VDisk: "vd", Extents: []petal.ReadVExtent{{Chunk: 1, Off: 0, Len: 8}, {Chunk: 2, Off: 100, Len: 9}}}},
		{ID: 5, IsReply: true, Body: petal.ReadVResp{OK: true, Results: []petal.ReadVExtentResult{
			{OK: true, Data: []byte("abc")},
			{OK: true},                        // hole
			{OK: false, Err: "crc"},           // extent-local failure
			{OK: true, Data: []byte{1, 2, 3}}, // more data after failure
		}}},
		{ID: 6, Trace: 1, Span: 2, Body: petal.WriteVReq{VDisk: "vd", Forwarded: true, ExpireAt: -5, LeaseID: 42, Epoch: 3, Extents: []petal.WriteVExtent{
			{Chunk: 9, Off: 1024, Data: []byte("payload")},
		}}},
		{ID: 6, IsReply: true, Body: petal.WriteVResp{OK: true}},
		{ID: 7, Body: petal.WriteVReq{VDisk: "vd", ExpireAt: 11, LeaseID: 5, Epoch: 2, Extents: []petal.WriteVExtent{
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
		if got.ID != env.ID || got.IsReply != env.IsReply || got.Trace != env.Trace ||
			got.Span != env.Span || got.Principal != env.Principal {
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
