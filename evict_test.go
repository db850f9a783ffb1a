package frangipani_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"frangipani"
	"frangipani/internal/petal"
	"frangipani/internal/rpc"
)

// holder is a carrier under one file server's Petal client. Once armed,
// it holds the first write request that carries a page of want — the
// write-back of that page when the pool evicts it — or, with want nil,
// the first read request of the sector at Petal address sector, until
// release is called. It records where in Petal the held write's page
// goes, and counts the read requests of sector.
type holder struct {
	rpc.Carrier
	want     []byte
	sector   int64
	mu       sync.Mutex
	armed    bool
	chunk    int64
	off      int
	reads    int
	held     chan struct{} // closed once the request is held
	released chan struct{}
	once     sync.Once
}

func (h *holder) Send(from, to string, env rpc.Envelope, size int) error {
	hold := false
	switch r := env.Body.(type) {
	case *petal.WriteVReq:
		hold = !r.Forwarded && h.take(r)
	case *petal.ReadVReq:
		hold = h.takeRead(r)
	}
	if hold {
		close(h.held)
		<-h.released
	}
	return h.Carrier.Send(from, to, env, size)
}

// take reports whether r is the write to hold, and disarms if so.
func (h *holder) take(r *petal.WriteVReq) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.armed || h.want == nil {
		return false
	}
	for _, e := range r.Extents {
		if i := bytes.Index(e.Data, h.want); i >= 0 {
			h.armed, h.chunk, h.off = false, e.Chunk, e.Off+i
			return true
		}
	}
	return false
}

// takeRead counts r if it reads sector, and reports whether it is the
// read to hold, disarming if so.
func (h *holder) takeRead(r *petal.ReadVReq) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	chunk, off := h.sector/petal.ChunkSize, int(h.sector%petal.ChunkSize)
	for _, e := range r.Extents {
		if e.Chunk == chunk && e.Off <= off && off < e.Off+e.Len {
			h.reads++
			if h.armed && h.want == nil {
				h.armed = false
				return true
			}
			return false
		}
	}
	return false
}

func (h *holder) release() { h.once.Do(func() { close(h.released) }) }

// evictRig is two file servers on one cluster. ws1 has a data cache of
// four pages (newEvictRigCap: as many as it is given) and reaches Petal
// through hold; its update demon never runs during a test, so a dirty
// page of it reaches Petal only when someone writes it back.
type evictRig struct {
	c        *frangipani.Cluster
	pc       *petal.Client
	hold     *holder
	ws1, ws2 *frangipani.FS
}

func newEvictRig(t *testing.T) *evictRig {
	t.Helper()
	return newEvictRigCap(t, 4)
}

func newEvictRigCap(t *testing.T, pages int) *evictRig {
	t.Helper()
	cfg := frangipani.DefaultClusterConfig()
	cfg.Compression = 25 // a held write in a slower world: host stalls are not timeouts
	cfg.FSConfig.SyncEvery = time.Hour
	c, err := frangipani.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	r := &evictRig{c: c, hold: &holder{Carrier: rpc.SimCarrier{Net: c.World.Net},
		held: make(chan struct{}), released: make(chan struct{})}}
	t.Cleanup(r.hold.release)
	r.pc = petal.NewClientWithCarrier(c.World, "ws1", c.PetalServerNames(), r.hold)
	t.Cleanup(r.pc.Close)
	fscfg := cfg.FSConfig
	fscfg.DataCacheCap = pages
	if r.ws1, err = frangipani.Mount(c.World, "ws1", r.pc, "fs0", c.LockServerNames(), c.Layout(), fscfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.ws1.Unmount() })
	r.ws2 = addServer(t, c, "ws2")
	return r
}

// evictHeld dirties the one page of /p on ws1 with page, then writes
// four pages of another file, which evict it, and holds the eviction's
// write of page at the carrier. It returns /p's handle and a channel
// that delivers the other write's error once that write has returned.
func (r *evictRig) evictHeld(t *testing.T, page []byte) (*frangipani.File, chan error) {
	t.Helper()
	h, err := r.ws1.OpenFile("/p", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	q, err := r.ws1.OpenFile("/q", true)
	if err != nil {
		t.Fatal(err)
	}
	r.hold.mu.Lock()
	r.hold.want, r.hold.armed = page, true
	r.hold.mu.Unlock()
	evicted := make(chan error, 1)
	go func() {
		_, err := q.WriteAt(pattern(16<<10, 9), 0)
		evicted <- err
	}()
	select {
	case <-r.hold.held:
	case err := <-evicted:
		t.Fatalf("filling the cache sent no write of the dirty page (write: %v)", err)
	case <-time.After(20 * time.Second):
		t.Fatal("filling the cache sent no write of the dirty page")
	}
	return h, evicted
}

// onPrimary reports whether the primary of the held write's chunk holds
// page where the held write would put it.
func (r *evictRig) onPrimary(t *testing.T, page []byte) bool {
	st, err := r.pc.State()
	if err != nil {
		t.Fatal(err)
	}
	primary, _ := st.Replicas("fs0", r.hold.chunk)
	for _, s := range r.c.Petals {
		if s.Name() == primary {
			got, ok := s.DebugReadChunk("fs0", r.hold.chunk, r.hold.off, len(page))
			return ok && bytes.Equal(got, page)
		}
	}
	t.Fatalf("no Petal server is named %q", primary)
	return false
}

// check reads /p through ws2, which must see want, and runs fsck once
// both servers have written everything back.
func (r *evictRig) check(t *testing.T, want []byte, what string) {
	t.Helper()
	h, err := r.ws2.Open("/p")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the other server reads %s", what)
	}
	for _, f := range []*frangipani.FS{r.ws1, r.ws2} {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := r.c.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck problems: %+v", rep.Problems)
	}
}

// TestEvictionJoinsTheFlightGate: the pool evicts a dirty page and its
// write-back is held on the way to Petal. The page is overwritten whole
// and the file synced. Eviction writes back through the flight gate, so
// the fsync joins its flight and sends the newer bytes only once that
// has landed. Were the eviction's write outside the gate, the fsync
// would send the newer page beside it, and the older write, released
// once the newer one is on the primary, would land last.
func TestEvictionJoinsTheFlightGate(t *testing.T) {
	r := newEvictRig(t)
	old, newest := pattern(4096, 1), pattern(4096, 2)
	h, evicted := r.evictHeld(t, old)
	if _, err := h.WriteAt(newest, 0); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- h.Sync() }()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline) && !r.onPrimary(t, newest); {
		time.Sleep(time.Millisecond)
	}
	r.hold.release()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := <-evicted; err != nil {
		t.Fatal(err)
	}
	r.check(t, newest, "the evicted bytes, which landed after the newer ones")
}

// TestReleasedFlightLeavesNoClaim: ws1 writes a 2 MB file in one call,
// which hands all of it to one write-behind flight, sent in three batches
// (the 64 KB of small blocks, then the large block in runs of at most
// 1 MB), and the batch that carries the last page is held on its way to
// Petal. The other two land and their pages are clean, but the flight
// holds their claims until it is released. A flood of fills (a file ws2
// wrote) then evicts most of them. The flight pins its entries, so the
// fills cannot take them; were one reused for another block before
// release read its address, the finished claim would stay in the gate at
// the old address, and every later fetch of that page would wait on it,
// find nothing cached and go round again. Once the flight is released, a
// read of the evicted pages must return, with the file's bytes.
func TestReleasedFlightLeavesNoClaim(t *testing.T) {
	const size = 2 << 20
	const capacity = 600 // pages: the file's 512 and room
	r := newEvictRigCap(t, capacity)
	data := pattern(size, 6)
	// Every fill past the cache's room evicts one of the file's oldest
	// pages: 212 of the 272 clean ones, none of the held batch's.
	flood := pattern((capacity-300)*4096, 7)
	fl, err := r.ws2.OpenFile("/flood", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.WriteAt(flood, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.ws2.Sync(); err != nil {
		t.Fatal(err)
	}
	h, err := r.ws1.OpenFile("/big", true)
	if err != nil {
		t.Fatal(err)
	}
	flushed := r.c.Obs().Counter("fs.flush.pages#ws1")
	before := flushed.Value()
	r.hold.mu.Lock()
	r.hold.want, r.hold.armed = data[size-4096:], true
	r.hold.mu.Unlock()
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-r.hold.held:
	case <-time.After(20 * time.Second):
		t.Fatal("the write-behind flight sent no write of the last page")
	}
	for deadline := time.Now().Add(20 * time.Second); flushed.Value()-before < 272; {
		if time.Now().After(deadline) {
			t.Fatalf("%d pages of the flight landed, want the 272 of its first two batches", flushed.Value()-before)
		}
		time.Sleep(time.Millisecond)
	}
	g, err := r.ws1.Open("/flood")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(flood))
	if _, err := g.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, flood) {
		t.Fatal("the flood read the wrong bytes")
	}
	r.hold.release()
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		got := make([]byte, size/2)
		_, err := h.ReadAt(got, 0)
		if err == nil && !bytes.Equal(got, data[:size/2]) {
			err = errors.New("read the wrong bytes")
		}
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a read of the evicted pages never returned: a claim outlived its flight at their old addresses")
	}
	other, err := r.ws2.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	got = make([]byte, size)
	if _, err := other.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the other server reads the wrong bytes")
	}
}

// TestReadOfPageBeingEvicted: while the write-back of an evicted dirty
// page is held on its way to Petal, the server that evicted it reads the
// page. It must read the bytes being written back, not the older ones
// Petal still holds.
func TestReadOfPageBeingEvicted(t *testing.T) {
	r := newEvictRig(t)
	page := pattern(4096, 3)
	h, evicted := r.evictHeld(t, page)
	got := make([]byte, len(page))
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	r.hold.release()
	if err := <-evicted; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatalf("the page read while its write-back was out is not the one being written (zeros: %v)",
			bytes.Equal(got, make([]byte, len(got))))
	}
	r.check(t, page, "something other than the evicted page")
}

// TestMetadataJoinsTheFlightGate: the update demon's write of a
// directory sector is held on its way to Petal, the directory gets a
// second entry, and another server's lookup of it revokes the
// directory's lock. Metadata sectors pass the flight gate too, so the
// revoke joins the held flight and sends the newer sector only once that
// has landed. Were the sector's write-back outside the gate, the revoke
// would send the newer sector beside the held one, the lookup would
// return at once, and the older sector, released after it, would land
// last: a third server would find no second entry.
func TestMetadataJoinsTheFlightGate(t *testing.T) {
	r := newEvictRig(t)
	first, second := "/d/"+strings.Repeat("a", 40), "/d/"+strings.Repeat("b", 40)
	if err := r.ws1.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	h, err := r.ws1.OpenFile(first, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil { // the log is forced; only the sector still carries the name
		t.Fatal(err)
	}
	r.hold.mu.Lock()
	r.hold.want, r.hold.armed = []byte(strings.Repeat("a", 40)), true
	r.hold.mu.Unlock()
	synced := make(chan error, 1)
	go func() { synced <- r.ws1.Sync() }()
	select {
	case <-r.hold.held:
	case err := <-synced:
		t.Fatalf("the sync sent no write of the directory sector (sync: %v)", err)
	case <-time.After(20 * time.Second):
		t.Fatal("the sync sent no write of the directory sector")
	}
	if err := r.ws1.Create(second); err != nil {
		t.Fatal(err)
	}
	stat := make(chan error, 1)
	go func() {
		_, err := r.ws2.Stat(second)
		stat <- err
	}()
	var statErr error
	select {
	case statErr = <-stat:
		r.hold.release()
	case <-time.After(2 * time.Second):
		r.hold.release()
		statErr = <-stat
	}
	if statErr != nil {
		t.Fatal(statErr)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	for _, f := range []*frangipani.FS{r.ws1, r.ws2} {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := addServer(t, r.c, "ws3").Stat(second); err != nil {
		t.Fatalf("a third server finds no second entry, which the older sector overwrote: %v", err)
	}
	rep, err := r.c.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck problems: %+v", rep.Problems)
	}
}

// TestConcurrentMissesReadOnce: two Stats on one server miss one inode
// sector at once; the first one's read of it is held on its way to
// Petal. Metadata sectors enter the cache through the fetch gate like
// data pages, so the second Stat joins the first one's fetch and no
// second read of the sector is sent. Were the sector read outside the
// gate, the second Stat would send a read of its own and return while
// the first was still held.
func TestConcurrentMissesReadOnce(t *testing.T) {
	r := newEvictRig(t)
	if err := r.ws2.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := r.ws2.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := r.ws2.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	lay := r.c.Layout()
	r.hold.mu.Lock()
	r.hold.sector, r.hold.reads, r.hold.armed = lay.InodeAddr(info.Inum), 0, true
	r.hold.mu.Unlock()
	stat := func() chan error {
		done := make(chan error, 1)
		go func() {
			_, err := r.ws1.Stat("/f")
			done <- err
		}()
		return done
	}
	first := stat()
	select {
	case <-r.hold.held:
	case err := <-first:
		t.Fatalf("the stat sent no read of the inode sector (stat: %v)", err)
	case <-time.After(20 * time.Second):
		t.Fatal("the stat sent no read of the inode sector")
	}
	second := stat()
	var secondErr error
	select {
	case secondErr = <-second:
		r.hold.release()
	case <-time.After(time.Second):
		r.hold.release()
		secondErr = <-second
	}
	if secondErr != nil {
		t.Fatal(secondErr)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	r.hold.mu.Lock()
	reads := r.hold.reads
	r.hold.mu.Unlock()
	if reads != 1 {
		t.Fatalf("two misses of one inode sector sent %d reads of it, want 1", reads)
	}
}

// TestHandoffMissesReadOnce: ws2's write takes a small file's lock from
// ws1, which keeps a hint of the file's block map. Two reads of the file
// on ws1 then miss its inode sector at once. The first goes to the
// speculative fill, which reads the sector and the hinted pages in one
// ReadV, and that read is held on its way to Petal. The fill claims the
// sector at the fetch gate together with the pages, so the second read
// joins it and sends no read of the sector. Were the fill's sector
// outside the gate, the second read would send a read of its own and
// return while the first was still held.
func TestHandoffMissesReadOnce(t *testing.T) {
	r := newEvictRig(t)
	data := pattern(8<<10, 4)
	h1, err := r.ws1.OpenFile("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	h2, err := r.ws2.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	rec := pattern(4096, 5)
	if _, err := h2.WriteAt(rec, 0); err != nil { // revokes ws1's lock: ws1 keeps a hint
		t.Fatal(err)
	}
	copy(data, rec)
	info, err := r.ws2.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	lay, spec := r.c.Layout(), r.c.Obs().Counter("fs.read.spec.fills#ws1")
	spec0 := spec.Value()
	r.hold.mu.Lock()
	r.hold.sector, r.hold.reads, r.hold.armed = lay.InodeAddr(info.Inum), 0, true
	r.hold.mu.Unlock()
	read := func() chan error {
		done := make(chan error, 1)
		go func() {
			got := make([]byte, len(data))
			_, err := h1.ReadAt(got, 0)
			if err == nil && !bytes.Equal(got, data) {
				err = errors.New("read the wrong bytes")
			}
			done <- err
		}()
		return done
	}
	first := read()
	select {
	case <-r.hold.held:
	case err := <-first:
		t.Fatalf("the read sent no read of the inode sector (read: %v)", err)
	case <-time.After(20 * time.Second):
		t.Fatal("the read sent no read of the inode sector")
	}
	second := read()
	var secondErr error
	select {
	case secondErr = <-second:
		r.hold.release()
	case <-time.After(time.Second):
		r.hold.release()
		secondErr = <-second
	}
	if secondErr != nil {
		t.Fatal(secondErr)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	r.hold.mu.Lock()
	reads := r.hold.reads
	r.hold.mu.Unlock()
	if reads != 1 {
		t.Fatalf("two misses of one inode sector after a handoff sent %d reads of it, want 1", reads)
	}
	if n := spec.Value() - spec0; n != 1 {
		t.Fatalf("%d speculative fills, want the first read's", n)
	}
}

// TestRevokesFlushConcurrently: ws1 dirties files A and B. ws2's Stat of
// A revokes A's lock, and the write of A's page, the revoke's flush, is
// held on its way to Petal. ws2's Stat of B, whose revoke flushes B's
// page, returns all the same: ws1's clerk hands each revoke to a worker
// of its own, parked or new, so a held flush holds no other lock's. Once
// the write is released, both pages land and fsck is clean.
func TestRevokesFlushConcurrently(t *testing.T) {
	r := newEvictRig(t)
	pa, pb := pattern(4096, 3), pattern(4096, 4)
	for name, page := range map[string][]byte{"/a": pa, "/b": pb} {
		h, err := r.ws1.OpenFile(name, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(page, 0); err != nil {
			t.Fatal(err)
		}
	}
	r.hold.mu.Lock()
	r.hold.want, r.hold.armed = pa, true
	r.hold.mu.Unlock()
	statA := make(chan error, 1)
	go func() {
		_, err := r.ws2.Stat("/a")
		statA <- err
	}()
	select {
	case <-r.hold.held:
	case err := <-statA:
		t.Fatalf("the revoke of A's lock sent no write of its page (stat: %v)", err)
	case <-time.After(20 * time.Second):
		t.Fatal("the revoke of A's lock sent no write of its page")
	}
	statB := make(chan error, 1)
	go func() {
		_, err := r.ws2.Stat("/b")
		statB <- err
	}()
	select {
	case err := <-statB:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		r.hold.release()
		t.Fatal("the Stat of B waited for the held flush of A's revoke")
	}
	select {
	case err := <-statA:
		t.Fatalf("the Stat of A returned while its revoke's write was held (%v)", err)
	default:
	}
	r.hold.release()
	if err := <-statA; err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"/a": pa, "/b": pb} {
		h, err := r.ws2.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := h.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ws2 reads %s without ws1's bytes", name)
		}
	}
	for _, f := range []*frangipani.FS{r.ws1, r.ws2} {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := r.c.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck problems: %+v", rep.Problems)
	}
}
