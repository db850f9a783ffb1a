package rpc_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"

	"frangipani/internal/petal"
	"frangipani/internal/rpc"
)

// The benchmark workload is the acceptance-criteria shape: a 1 MB
// scatter-gather transfer as 16 chunk-sized extents, the way the
// cache flusher and the read engine actually batch them.

func benchWriteVReq() petal.WriteVReq {
	exts := make([]petal.WriteVExtent, 16)
	for i := range exts {
		data := make([]byte, petal.ChunkSize)
		for j := range data {
			data[j] = byte(i + j)
		}
		exts[i] = petal.WriteVExtent{Chunk: int64(i), Data: data}
	}
	return petal.WriteVReq{VDisk: "bench", Extents: exts, ExpireAt: 12345, Epoch: 3}
}

func benchReadVResp() petal.ReadVResp {
	res := make([]petal.ReadVExtentResult, 16)
	for i := range res {
		data := make([]byte, petal.ChunkSize)
		for j := range data {
			data[j] = byte(i ^ j)
		}
		res[i] = petal.ReadVExtentResult{OK: true, Data: data}
	}
	return petal.ReadVResp{OK: true, Results: res}
}

// What decoding a 16 × 64 KB message allocates (make alloc-budget): a
// WriteVReq sent by value is the body, its VDisk, its extents and the
// body's copy into an interface (4); a ReadVResp by value the body, its
// results and the copy (3). Encoding either allocates nothing.
const (
	writeVDecodeAllocs = 4
	readVDecodeAllocs  = 3
)

// TestCodecEncodeAllocs pins what the codec allocates on the data
// path's two bulk messages: nothing to encode, the decode counts above
// to decode.
func TestCodecEncodeAllocs(t *testing.T) {
	for _, c := range []struct {
		name   string
		body   any
		decode float64
	}{
		{"WriteVReq", benchWriteVReq(), writeVDecodeAllocs},
		{"ReadVResp", benchReadVResp(), readVDecodeAllocs},
	} {
		env := rpc.Envelope{ID: 9, Body: c.body}
		hdr, pl, err := rpc.AppendMessageHeader(nil, nil, env)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			hdr, pl, err = rpc.AppendMessageHeader(hdr[:0], pl[:0], env)
		}); n != 0 || err != nil {
			t.Errorf("%s: encode allocates %v objects (err %v), want 0", c.name, n, err)
		}
		msg, err := rpc.AppendMessage(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			_, _, err = rpc.DecodeMessage(msg, nil)
		}); n != c.decode || err != nil {
			t.Errorf("%s: decode allocates %v objects (err %v), want %v", c.name, n, err, c.decode)
		}
	}
}

// BenchmarkCodecWriteVEncode measures the sender-side hot path: the
// message prefix is appended into a reused buffer and the 1 MB of
// payload travels as the caller's own slices — zero copies, zero
// allocations at steady state.
func BenchmarkCodecWriteVEncode(b *testing.B) {
	env := rpc.Envelope{ID: 9, Body: benchWriteVReq()}
	hdr, pl, err := rpc.AppendMessageHeader(nil, nil, env)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdr, pl, err = rpc.AppendMessageHeader(hdr[:0], pl[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecWriteVDecode measures the receiver-side hot path:
// one pass over the reassembled message, slicing extents out of the
// receive buffer without copying the payload.
func BenchmarkCodecWriteVDecode(b *testing.B) {
	msg, err := rpc.AppendMessage(nil, rpc.Envelope{ID: 9, Body: benchWriteVReq()})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rpc.DecodeMessage(msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecReadVEncode(b *testing.B) {
	env := rpc.Envelope{ID: 9, IsReply: true, Body: benchReadVResp()}
	hdr, pl, err := rpc.AppendMessageHeader(nil, nil, env)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdr, pl, err = rpc.AppendMessageHeader(hdr[:0], pl[:0], env)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecReadVDecode(b *testing.B) {
	msg, err := rpc.AppendMessage(nil, rpc.Envelope{ID: 9, IsReply: true, Body: benchReadVResp()})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rpc.DecodeMessage(msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Gob baselines: the standard library's self-describing encoding, the
// reference TestCodecBudget holds the codec against. Encode reuses one
// encoder per connection (buffer reset per message); decode runs a
// decoder over a self-describing message, as each message would cost on
// a fresh connection.

func init() {
	gob.Register(petal.WriteVReq{})
	gob.Register(petal.ReadVResp{})
}

func BenchmarkGobWriteVEncode(b *testing.B) {
	env := rpc.Envelope{ID: 9, Body: benchWriteVReq()}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(env); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGobWriteVDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rpc.Envelope{ID: 9, Body: benchWriteVReq()}); err != nil {
		b.Fatal(err)
	}
	msg := buf.Bytes()
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var env rpc.Envelope
		if err := gob.NewDecoder(bytes.NewReader(msg)).Decode(&env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGobReadVEncode(b *testing.B) {
	env := rpc.Envelope{ID: 9, IsReply: true, Body: benchReadVResp()}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(env); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGobReadVDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rpc.Envelope{ID: 9, IsReply: true, Body: benchReadVResp()}); err != nil {
		b.Fatal(err)
	}
	msg := buf.Bytes()
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var env rpc.Envelope
		if err := gob.NewDecoder(bytes.NewReader(msg)).Decode(&env); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCodecBudget is the CI assertion behind `make bench-smoke`: the
// codec must beat the gob baseline by at least 5x on
// allocs/op and 2x on ns/op for the 1 MB WriteV/ReadV shapes, and the
// steady-state encode path must not allocate at all. Gated behind
// CODEC_BUDGET=1 so ordinary `go test` stays fast.
func TestCodecBudget(t *testing.T) {
	if os.Getenv("CODEC_BUDGET") != "1" {
		t.Skip("set CODEC_BUDGET=1 to run the codec budget assertions")
	}
	type pair struct {
		name    string
		fast    func(*testing.B)
		base    func(*testing.B)
		zeroEnc bool
	}
	pairs := []pair{
		{"WriteVEncode", BenchmarkCodecWriteVEncode, BenchmarkGobWriteVEncode, true},
		{"WriteVDecode", BenchmarkCodecWriteVDecode, BenchmarkGobWriteVDecode, false},
		{"ReadVEncode", BenchmarkCodecReadVEncode, BenchmarkGobReadVEncode, true},
		{"ReadVDecode", BenchmarkCodecReadVDecode, BenchmarkGobReadVDecode, false},
	}
	for _, p := range pairs {
		fast := testing.Benchmark(p.fast)
		base := testing.Benchmark(p.base)
		t.Logf("%s: codec %d ns/op %d allocs/op | gob %d ns/op %d allocs/op",
			p.name, fast.NsPerOp(), fast.AllocsPerOp(), base.NsPerOp(), base.AllocsPerOp())
		if p.zeroEnc && fast.AllocsPerOp() != 0 {
			t.Errorf("%s: steady-state encode allocates (%d allocs/op, want 0)", p.name, fast.AllocsPerOp())
		}
		if fast.AllocsPerOp()*5 > base.AllocsPerOp() {
			t.Errorf("%s: allocs/op budget: codec %d, gob %d (need >= 5x fewer)",
				p.name, fast.AllocsPerOp(), base.AllocsPerOp())
		}
		if fast.NsPerOp()*2 > base.NsPerOp() {
			t.Errorf("%s: ns/op budget: codec %d, gob %d (need >= 2x faster)",
				p.name, fast.NsPerOp(), base.NsPerOp())
		}
	}
}
