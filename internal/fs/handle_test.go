package fs

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"frangipani/internal/obs"
)

// accountsOf indexes the world's account table by principal; principals
// nothing was ever charged to read as zero.
func accountsOf(tw *testWorld) map[string]obs.AccountStat {
	out := map[string]obs.AccountStat{}
	for _, st := range tw.w.Obs.Accounts().Snapshot() {
		out[st.Principal] = st
	}
	return out
}

// counterSum adds up every instance of a counter ("wal.appends" sums
// "wal.appends#ws1", "wal.appends#ws2", ...).
func counterSum(tw *testWorld, name string) int64 {
	return sumOf(tw.w.Obs.Snapshot().Counters, name)
}

func sumOf(counters map[string]int64, name string) int64 {
	var n int64
	for k, v := range counters {
		if strings.HasPrefix(k, name+"#") {
			n += v
		}
	}
	return n
}

// TestPrincipalsExactUnderInterleaving: two tenants work one mounted
// server at the same time, each through its own As view. What the
// goroutine binding used to provide now has to hold by construction:
// every byte, op, log byte and RPC lands on the tenant whose call caused
// it, exactly, and none of it leaks to the other or to "unknown". The
// tenants' work is shaped so that each figure has one possible owner:
// only tenant-a writes (so all log bytes and all write RPCs are its),
// only tenant-b misses the cache (so all read RPCs are its).
func TestPrincipalsExactUnderInterleaving(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", func(c *Config) {
		c.SyncEvery = time.Hour // no demon, no prefetch: nothing runs for
		c.ReadAhead = 0         // nobody while the tenants are judged
	})
	// Set-up through the server's own view: both files laid down, clean,
	// and /b out of the cache again.
	for _, p := range []string{"/a", "/b"} {
		h, err := f.OpenFile(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(make([]byte, 64<<10), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	bInfo, err := f.Stat("/b")
	if err != nil {
		t.Fatal(err)
	}
	f.data.InvalidateByOwner(InodeLock(bInfo.Inum))

	before := accountsOf(tw)
	wal0 := counterSum(tw, "wal.append.bytes")
	readv0, writev0 := counterSum(tw, "petal.readv.rpcs"), counterSum(tw, "petal.writev.rpcs")

	const rounds, wrSize, rdSize, syncEvery = 500, 512, 256, 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // tenant-a: small overwrites of cached pages, an fsync now and then
		defer wg.Done()
		h, err := f.As("tenant-a").Open("/a")
		if err != nil {
			t.Error(err)
			return
		}
		rec := make([]byte, wrSize)
		for i := 0; i < rounds; i++ {
			if _, err := h.WriteAt(rec, int64(i%100)*wrSize); err != nil {
				t.Error(err)
				return
			}
			if (i+1)%syncEvery == 0 {
				if err := h.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // tenant-b: small reads all over a file it has to fetch
		defer wg.Done()
		h, err := f.As("tenant-b").Open("/b")
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, rdSize)
		for i := 0; i < rounds; i++ {
			if _, err := h.ReadAt(buf, int64(i*37%256)*rdSize); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	after := accountsOf(tw)
	a, b := after["tenant-a"], after["tenant-b"]
	wal := counterSum(tw, "wal.append.bytes") - wal0
	readv, writev := counterSum(tw, "petal.readv.rpcs")-readv0, counterSum(tw, "petal.writev.rpcs")-writev0
	type figures struct{ ops, in, out, wal, rpcs int64 }
	got := func(st obs.AccountStat) figures {
		return figures{st.Ops, st.BytesIn, st.BytesOut, st.WALBytes, st.RPCs}
	}
	if want := (figures{1 + rounds + rounds/syncEvery, rounds * wrSize, 0, wal, writev}); got(a) != want {
		t.Errorf("tenant-a {ops in out wal rpcs} = %+v, want %+v", got(a), want)
	}
	if want := (figures{1 + rounds, 0, rounds * rdSize, 0, readv}); got(b) != want {
		t.Errorf("tenant-b {ops in out wal rpcs} = %+v, want %+v", got(b), want)
	}
	if wal == 0 || writev == 0 || readv == 0 {
		t.Errorf("the work left no trace to attribute: wal %d B, %d write RPCs, %d read RPCs", wal, writev, readv)
	}
	if u0, u := got(before[obs.UnknownPrincipal]), got(after[obs.UnknownPrincipal]); u != u0 {
		t.Errorf("tenants' work leaked to %q: {ops in out wal rpcs} %+v -> %+v", obs.UnknownPrincipal, u0, u)
	}
	fsckClean(t, tw)
}

// TestSyncFanOutStaysInTrace: a Sync of several separate dirty runs fans
// out — flush workers in fs, per-server batches in the Petal driver,
// replica forwards in the Petal servers — and every goroutine of it was
// handed the operation's span: each petal span hangs from a span of the
// same trace, none roots a trace of its own.
func TestSyncFanOutStaysInTrace(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", func(c *Config) { c.SyncEvery = time.Hour })
	h, err := f.OpenFile("/runs", true)
	if err != nil {
		t.Fatal(err)
	}
	// Back to front, a chunk apart: no two writes continue a stream, so
	// nothing is written behind and all five runs wait for the Sync.
	for i := 4; i >= 0; i-- {
		if _, err := h.WriteAt(make([]byte, 64<<10), int64(i)*(128<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.m.flushBatches.Value(); n != 0 {
		t.Fatalf("%d batches written back before the Sync", n)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	tr := tw.w.Obs.Tracer()
	spans := tr.SpansFor(tr.LastRoot())
	ids := map[uint64]bool{}
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	client, server := 0, 0
	for _, sp := range spans {
		if sp.Layer != "petal" {
			continue
		}
		if strings.HasPrefix(sp.Op, "server.") {
			server++
		} else {
			client++
		}
		if sp.ID == sp.TraceID || !ids[sp.Parent] {
			t.Errorf("petal.%s (span %d) has parent %d, which is not in its trace", sp.Op, sp.ID, sp.Parent)
		}
	}
	// The log, the metadata and the data each make a client call; five
	// chunks on three servers, each with a replica, make many server ones.
	if client < 3 || server < 6 {
		t.Errorf("trace holds %d petal client spans and %d server spans; the fan-out is not in it:\n%s",
			client, server, tr.RenderTrace(tr.LastRoot()))
	}
	for _, id := range tr.Roots(0) {
		for _, sp := range tr.SpansFor(id) {
			if sp.ID == sp.TraceID && sp.Layer == "petal" {
				t.Errorf("petal.%s roots trace %d", sp.Op, id)
			}
		}
	}
	fsckClean(t, tw)
}

// TestCreateSpanFollowsItsLogAppend: a create's log append and its span
// land in the server's one ring, in the order they happened — the
// append's event before the create's span record, which ends the
// operation — so the server's stream reads as it ran.
func TestCreateSpanFollowsItsLogAppend(t *testing.T) {
	tw := newTestWorld(t)
	f := tw.mount(t, "ws1", func(c *Config) { c.SyncEvery = time.Hour })
	if err := f.Create("/a"); err != nil {
		t.Fatal(err)
	}
	appendAt, createAt := -1, -1
	for i, e := range tw.w.Obs.Journal("ws1").Events() {
		switch {
		case e.Layer == "wal" && e.Op == "append" && e.Kind == "ok":
			appendAt = i
		case e.Layer == "fs" && e.Op == "create" && e.Kind == obs.SpanKind:
			createAt = i
		}
	}
	if appendAt < 0 || createAt < appendAt {
		t.Fatalf("ring order: wal append ok at %d, fs.create span at %d", appendAt, createAt)
	}
	fsckClean(t, tw)
}

// TestCacheCountersCountDemand: the pools' hit and miss counters count
// the lookups of whoever needed a block, not the fetch path's own
// probes, so the ratio can say that read-ahead works: a sequential
// reader of an uncached file that prefetch keeps ahead of finds almost
// every page in the cache. And the principal is charged a miss where fs
// goes to Petal for it — once per foreground fetch, not once per probe.
func TestCacheCountersCountDemand(t *testing.T) {
	tw := newTestWorld(t)
	noDemon := func(c *Config) { c.SyncEvery = time.Hour }
	writer, reader := tw.mount(t, "ws1", noDemon), tw.mount(t, "ws2", noDemon)
	const size, rec = 2 << 20, 64 << 10
	wh, err := writer.OpenFile("/big", true)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < size; off += rec {
		if _, err := wh.WriteAt(make([]byte, rec), off); err != nil {
			t.Fatal(err)
		}
	}
	if err := wh.Sync(); err != nil {
		t.Fatal(err)
	}
	counters := func() (hits, misses, metaMisses, fills int64) {
		c := tw.w.Obs.Snapshot().Counters
		return c["cache.hits#ws2.data"], c["cache.misses#ws2.data"], c["cache.misses#ws2.meta"], c["fs.read.fills#ws2"]
	}
	pass := func(h *File) {
		t.Helper()
		buf := make([]byte, rec)
		for off := int64(0); off < size; off += rec {
			if _, err := h.ReadAt(buf, off); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		}
	}
	rh, err := reader.As("reader").Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	pass(rh)
	hits, misses, metaMisses, fills := counters()
	ratio := float64(hits) / float64(hits+misses)
	t.Logf("uncached sequential pass: %d hits, %d misses (ratio %.3f), %d foreground fetches, %d prefetches",
		hits, misses, ratio, fills, reader.m.raHits.Value())
	if ratio < 0.9 {
		t.Errorf("data-pool hit ratio of a prefetched sequential pass is %.3f, want >= 0.9", ratio)
	}
	if got := accountsOf(tw)["reader"].CacheMisses; got != fills+metaMisses {
		t.Errorf("reader charged %d cache misses; it made %d data and %d metadata fetches", got, fills, metaMisses)
	}
	// The same pass over the now cached file: all hits, nothing charged.
	charged := accountsOf(tw)["reader"].CacheMisses
	pass(rh)
	hits2, misses2, _, _ := counters()
	if hits2-hits != size/BlockSize || misses2 != misses {
		t.Errorf("cached pass: %d hits and %d misses, want %d and 0", hits2-hits, misses2-misses, size/BlockSize)
	}
	if got := accountsOf(tw)["reader"].CacheMisses; got != charged {
		t.Errorf("cached pass charged %d misses", got-charged)
	}
	fsckClean(t, tw)
}

// TestConservationLaws: what the account table says was done for the
// principals is what the layers' own counters say was done, exactly —
// each charge is made explicitly, by the code that does the work, next
// to the counter it must agree with. A seeded mixed workload runs on two
// servers, every call through an As view (background work it sets off —
// write-behind, prefetch, revokes, log reclaim — lands on "unknown",
// which the sums include). A failure names the layer.
//
//   - fs: Σ BytesIn / BytesOut = the bytes the workload's calls wrote and
//     asked to read. (fs.write.bytes / fs.read.bytes cannot serve: they
//     count write-back and fetch traffic to Petal, whole pages each
//     moved as often as it is flushed or fetched.)
//   - wal: Σ WALBytes = Σ wal.append.bytes, the record bytes the logs'
//     Appends accepted.
//   - petal client: Σ RPCs = Σ petal.readv.rpcs + petal.writev.rpcs.
//   - servers: Σ ServerOps = Σ petal.server.requests +
//     lockservice.server.requests.
func TestConservationLaws(t *testing.T) {
	tw := newTestWorld(t)
	servers := []*FS{tw.mount(t, "ws1", nil), tw.mount(t, "ws2", nil)}
	rng := rand.New(rand.NewSource(20260117))
	var wrote, read int64
	paths := []string{"/d0/f0", "/d0/f1", "/d1/f0", "/d1/f1"}
	for _, d := range []string{"/d0", "/d1"} {
		if err := servers[0].As("setup").Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	// ok lets through the errors a random op may meet by design.
	ok := func(err error) bool {
		return err == nil || err == io.EOF || err == ErrNotExist || err == ErrExist
	}
	for i := 0; i < 400; i++ {
		v := servers[rng.Intn(2)].As(fmt.Sprintf("tenant-%d", rng.Intn(3)))
		p := paths[rng.Intn(len(paths))]
		var err error
		switch k := rng.Intn(10); {
		case k < 4: // write, small or a streamed run
			var h *File
			if h, err = v.OpenFile(p, true); err == nil {
				buf := make([]byte, []int{100, 4096, 64 << 10}[rng.Intn(3)])
				off := int64(rng.Intn(4)) * int64(len(buf))
				_, err = h.WriteAt(buf, off)
				wrote += int64(len(buf))
				if err == nil && rng.Intn(4) == 0 {
					err = h.Sync()
				}
			}
		case k < 7: // read
			var h *File
			if h, err = v.Open(p); err == nil {
				buf := make([]byte, []int{512, 8192, 64 << 10}[rng.Intn(3)])
				_, err = h.ReadAt(buf, int64(rng.Intn(4))*int64(len(buf)))
				read += int64(len(buf))
			}
		case k == 7:
			_, err = v.ReadDir(p[:3])
		case k == 8:
			if err = v.Remove(p); err == nil && rng.Intn(2) == 0 {
				err = v.Sync()
			}
		default:
			var h *File
			if h, err = v.Open(p); err == nil {
				err = h.Truncate(int64(rng.Intn(32 << 10)))
			}
		}
		if !ok(err) {
			t.Fatalf("op %d on %s: %v", i, p, err)
		}
	}
	fsckClean(t, tw)

	// Unmounted, the servers send nothing more (no renewals, no demons):
	// once the last message in flight has been handled both sides of
	// every law stand still, and they must agree.
	for _, f := range servers {
		if err := f.Unmount(); err != nil {
			t.Fatal(err)
		}
	}
	tw.mounts = nil
	var laws []string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var in, out, wal, rpcs, srv int64
		for _, st := range accountsOf(tw) {
			in, out, wal, rpcs, srv = in+st.BytesIn, out+st.BytesOut, wal+st.WALBytes, rpcs+st.RPCs, srv+st.ServerOps
		}
		counters := tw.w.Obs.Snapshot().Counters
		laws = laws[:0]
		check := func(layer string, charged, counted int64) {
			if charged != counted {
				laws = append(laws, fmt.Sprintf("%s: principals were charged %d, the layer counted %d", layer, charged, counted))
			}
		}
		check("fs bytes written", in, wrote)
		check("fs bytes read", out, read)
		check("wal record bytes", wal, sumOf(counters, "wal.append.bytes"))
		check("petal client RPCs", rpcs, sumOf(counters, "petal.readv.rpcs")+sumOf(counters, "petal.writev.rpcs"))
		check("server requests", srv, sumOf(counters, "petal.server.requests")+sumOf(counters, "lockservice.server.requests"))
		if len(laws) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, l := range laws {
		t.Error(l)
	}
	if wrote == 0 || read == 0 {
		t.Fatalf("workload moved %d B in, %d B out", wrote, read)
	}
}
