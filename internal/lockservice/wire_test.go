package lockservice

import (
	"reflect"
	"testing"

	"frangipani/internal/rpc"
)

func roundTrip(t *testing.T, body any) any {
	t.Helper()
	data, err := rpc.AppendMessage(nil, rpc.Envelope{ID: 42, Body: body})
	if err != nil {
		t.Fatalf("encode %T: %v", body, err)
	}
	env, _, err := rpc.DecodeMessage(data, nil)
	if err != nil {
		t.Fatalf("decode %T: %v", body, err)
	}
	if env.ID != 42 || env.IsReply {
		t.Fatalf("envelope fields lost: %+v", env)
	}
	return env.Body
}

func TestWireCodecAcquireBatch(t *testing.T) {
	for _, m := range []AcquireBatch{
		{Clerk: "ws1", Table: "fs", MapEpoch: 3, Reqs: []BatchReq{
			{Lock: 7, Mode: Exclusive, Epoch: 12},
			{Lock: 1 << 60, Mode: Shared, Epoch: -4},
		}, Renew: 5},
		{Clerk: "", Table: "", MapEpoch: 0},
	} {
		got := roundTrip(t, m).(AcquireBatch)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestWireCodecReleaseBatch(t *testing.T) {
	for _, m := range []ReleaseBatch{
		{Clerk: "ws2", Table: "fs", MapEpoch: 9, Rels: []BatchRel{
			{Lock: 1, NewMode: None},
			{Lock: 2, NewMode: Shared},
		}, Renew: 1 << 40},
		{Clerk: "c", Table: "t"},
	} {
		got := roundTrip(t, m).(ReleaseBatch)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
}

func TestWireCodecWrongShard(t *testing.T) {
	for _, m := range []WrongShard{
		{Server: "ls0", Table: "fs", Epoch: 5, Locks: []uint64{3, 1 << 50, 0}},
		{Server: "ls1", Table: "fs", Epoch: 1},
	} {
		got := roundTrip(t, m).(WrongShard)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
}

// TestWireCodecTruncation asserts decoders reject (never panic on)
// truncated messages.
func TestWireCodecTruncation(t *testing.T) {
	m := AcquireBatch{Clerk: "ws1", Table: "fs", MapEpoch: 3, Reqs: []BatchReq{{Lock: 7, Mode: Exclusive, Epoch: 12}}}
	data, err := rpc.AppendMessage(nil, rpc.Envelope{Body: m})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, _, err := rpc.DecodeMessage(data[:n], nil); err == nil {
			// Some prefixes decode as a shorter valid message only if
			// the header length still matches; any non-error must at
			// least not panic, which reaching here proves.
			continue
		}
	}
}

// TestWireSizeTracksEncoding keeps the Sizer estimate honest: the
// network cost model must charge batches roughly their real bytes.
func TestWireSizeTracksEncoding(t *testing.T) {
	reqs := make([]BatchReq, 64)
	for i := range reqs {
		reqs[i] = BatchReq{Lock: uint64(i * 997), Mode: Exclusive, Epoch: int64(i)}
	}
	m := AcquireBatch{Clerk: "ws1", Table: "fs", MapEpoch: 2, Reqs: reqs}
	data, err := rpc.AppendMessage(nil, rpc.Envelope{Body: m})
	if err != nil {
		t.Fatal(err)
	}
	est := m.WireSize()
	if est < len(data)/2 || est > len(data)*2 {
		t.Fatalf("WireSize %d vs encoded %d: off by more than 2x", est, len(data))
	}
}
