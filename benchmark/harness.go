package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"frangipani"
)

// The fixed set-up. Everything a number depends on is here or in
// workloads.go, and is repeated in README.md.
const (
	numClients = 2 // closed loop: one client goroutine per server
	warmupFrac = 4 // warm-up lasts seconds/warmupFrac, at most maxWarmup
	maxWarmup  = 3 * time.Second
	syncEvery  = 3 * time.Second // sync demon period: four cycles in a 12 s window
	dataCache  = 1024            // 4 KB pages: 4 MB, under the stream read set
	nvramBytes = 8 << 20         // PrestoServe card per disk
	setupReps  = 3               // set-ups per run; setup_s is their median
)

func clusterConfig(seed int64, noObs bool) frangipani.ClusterConfig {
	cfg := frangipani.DefaultClusterConfig() // 3 Petal servers x 3 disks, 3 lock servers, replication on
	cfg.Compression = 1                      // a simulated second is a wall second
	cfg.Seed = seed
	cfg.GuardWrites = true
	cfg.NVRAM = nvramBytes
	cfg.NoObs = noObs
	cfg.FSConfig.SyncEvery = syncEvery
	cfg.FSConfig.DataCacheCap = dataCache
	return cfg
}

// handle is an open file with the model of its contents.
type handle struct {
	f *frangipani.File
	m *fileModel
}

// span is one timed interval of a traced run: a client iteration (the
// root), a call inside it (its child), or a drive's batch. IDs are
// unique within a client.
type span struct {
	Client int    `json:"client"` // -1 for a drive
	Iter   int    `json:"iter"`   // shared by the spans of one iteration
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // the root's id; 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

// client is one closed-loop caller bound to one server.
type client struct {
	id      int
	fs      *frangipani.FS
	bed     *bed
	gen     generator
	model   *model
	handles map[string]*handle
	buf     []byte   // write source / read destination
	floors  []uint64 // scratch for fileModel.floors
	nextTag uint64

	failed  int64
	elapsed time.Duration // of the measured window

	// Window accounting, reset when measurement starts.
	tally
	lat     [numKinds][]int64 // ns per call, by kind
	headLat []int64           // ns per headline call
	spans   []span
	spanID  int
}

// tally is the counting part of a window: one client's, or their sum.
type tally struct {
	ops        int64
	bytesRead  int64
	bytesWrote int64
	readNs     int64 // time inside read calls
	writeNs    int64 // time inside write and fsync calls

	// Traced runs record spans on iterations whose pair index is even,
	// and compare the two halves' rates for the tracing overhead.
	tracedOps, plainOps int64
	tracedNs, plainNs   int64
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.bytesRead += o.bytesRead
	t.bytesWrote += o.bytesWrote
	t.readNs += o.readNs
	t.writeNs += o.writeNs
	t.tracedOps, t.plainOps = t.tracedOps+o.tracedOps, t.plainOps+o.plainOps
	t.tracedNs, t.plainNs = t.tracedNs+o.tracedNs, t.plainNs+o.plainNs
}

// bed is one assembled cluster with its clients, ready for a window.
type bed struct {
	cluster *frangipani.Cluster
	clients [numClients]*client
	noise   noise
	epoch   time.Time
	trace   bool
	errs    errLog
}

// errLog keeps the first few failures for the report.
type errLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *errLog) add(format string, args ...any) {
	l.mu.Lock()
	if len(l.msgs) < 10 {
		l.msgs = append(l.msgs, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// setUp builds the cluster, mounts both servers and runs the workload's
// prefill. Its duration is one setup_s sample.
func setUp(w workload, seed int64, sz sizes, noObs, trace bool) (*bed, time.Duration, error) {
	start := time.Now()
	c, err := frangipani.NewCluster(clusterConfig(seed, noObs))
	if err != nil {
		return nil, 0, fmt.Errorf("build cluster: %w", err)
	}
	b := &bed{cluster: c, noise: newNoise(seed), epoch: start, trace: trace}
	for i := range b.clients {
		fs, err := c.AddServer(fmt.Sprintf("ws%d", i+1))
		if err != nil {
			c.Close()
			return nil, 0, fmt.Errorf("mount ws%d: %w", i+1, err)
		}
		b.clients[i] = &client{
			id: i, fs: fs, bed: b, gen: w.newGen(seed, i, sz), model: newModel(),
			handles: map[string]*handle{}, buf: make([]byte, streamRec),
			nextTag: uint64(i+1) << 40,
		}
	}
	var stages [numClients][][]op
	for i, cl := range b.clients {
		stages[i] = cl.gen.prefill()
	}
	for s := range stages[0] {
		var wg sync.WaitGroup
		for i, cl := range b.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range stages[i][s] {
					cl.do(&stages[i][s][j], nil)
				}
			}()
		}
		wg.Wait()
	}
	for _, cl := range b.clients {
		if err := cl.fs.Sync(); err != nil {
			cl.failed++
			b.errs.add("prefill sync on %s: %v", cl.fs.Machine(), err)
		}
		if cl.failed > 0 {
			c.Close()
			return nil, 0, fmt.Errorf("prefill failed: %v", b.errs.msgs)
		}
	}
	return b, time.Since(start), nil
}

func (b *bed) close() { b.cluster.Close() }

func (cl *client) fail(o *op, err error) {
	cl.failed++
	cl.bed.errs.add("client %d %s %s: %v", cl.id, o.kind, o.path, err)
}

// do executes one call, times it, checks its result against the model
// and updates the model. root is the enclosing iteration's span, or nil
// when the call is not traced.
func (cl *client) do(o *op, root *span) {
	own := cl.bed.clients[o.owner].model
	var h *handle
	switch o.kind {
	case opWrite, opFsync, opRead:
		if h = cl.handles[o.path]; h == nil {
			cl.fail(o, fmt.Errorf("no open handle"))
			return
		}
	}
	var tag uint64
	buf := cl.buf[:min(o.size, len(cl.buf))]
	switch o.kind {
	case opWrite:
		cl.nextTag++
		tag = cl.nextTag
		cl.bed.noise.fill(buf, o.off, tag)
		h.m.beginWrite(o.off, len(buf), tag)
	case opRead:
		cl.floors = h.m.floors(cl.floors, o.off, len(buf))
	}

	var (
		err   error
		n     int
		names []frangipani.DirEntry
		info  frangipani.Info
		f     *frangipani.File
	)
	start := time.Now()
	switch o.kind {
	case opMkdir:
		err = cl.fs.Mkdir(o.path)
	case opCreate:
		err = cl.fs.Create(o.path)
	case opOpen:
		f, err = cl.fs.Open(o.path)
	case opWrite:
		n, err = h.f.WriteAt(buf, o.off)
	case opFsync:
		err = h.f.Sync()
	case opStat:
		info, err = cl.fs.Stat(o.path)
	case opReaddir:
		names, err = cl.fs.ReadDir(o.path)
	case opRead:
		n, err = h.f.ReadAt(buf, o.off)
		if err == io.EOF && n == len(buf) {
			err = nil
		}
	case opRename:
		err = cl.fs.Rename(o.path, o.path2)
	case opRemove:
		err = cl.fs.Remove(o.path)
	case opRmdir:
		err = cl.fs.Rmdir(o.path)
	}
	end := time.Now()
	d := end.Sub(start)

	cl.ops++
	cl.lat[o.kind] = append(cl.lat[o.kind], int64(d))
	if o.head {
		cl.headLat = append(cl.headLat, int64(d))
	}
	if root != nil {
		cl.spanID++
		cl.spans = append(cl.spans, span{Client: cl.id, Iter: root.Iter, ID: cl.spanID, Parent: root.ID,
			Name: "fs." + o.kind.String(), Start: int64(start.Sub(cl.bed.epoch)), End: int64(end.Sub(cl.bed.epoch))})
	}
	if err != nil {
		cl.fail(o, err)
		return
	}

	switch o.kind {
	case opMkdir:
		own.dirs[o.path] = map[string]bool{}
		own.link(o.path)
	case opCreate:
		own.files[o.path] = newFileModel(int64(o.size))
		own.link(o.path)
	case opOpen:
		cl.handles[o.path] = &handle{f: f, m: own.files[o.path]}
	case opWrite:
		cl.writeNs += int64(d)
		cl.bytesWrote += int64(n)
		if n != len(buf) {
			cl.fail(o, fmt.Errorf("short write: %d of %d", n, len(buf)))
		}
		h.m.endWrite(o.off, len(buf), tag)
	case opFsync:
		cl.writeNs += int64(d)
	case opStat:
		if m := own.files[o.path]; m != nil && info.Size != m.size.Load() {
			cl.fail(o, fmt.Errorf("size %d, model has %d", info.Size, m.size.Load()))
		}
	case opReaddir:
		if err := sameNames(names, own.dirs[o.path]); err != nil {
			cl.fail(o, err)
		}
	case opRead:
		cl.readNs += int64(d)
		cl.bytesRead += int64(n)
		if n != len(buf) {
			cl.fail(o, fmt.Errorf("short read: %d of %d", n, len(buf)))
		} else if err := h.m.check(cl.bed.noise, buf, o.off, cl.floors); err != nil {
			cl.fail(o, err)
		}
	case opRename:
		own.files[o.path2] = own.files[o.path]
		delete(own.files, o.path)
		own.unlink(o.path)
		own.link(o.path2)
		if h := cl.handles[o.path]; h != nil {
			cl.handles[o.path2] = h
			delete(cl.handles, o.path)
		}
	case opRemove:
		delete(own.files, o.path)
		delete(cl.handles, o.path)
		own.unlink(o.path)
	case opRmdir:
		delete(own.dirs, o.path)
		own.unlink(o.path)
	}
}

func sameNames(got []frangipani.DirEntry, want map[string]bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("directory lists %d names, model has %d", len(got), len(want))
	}
	for _, e := range got {
		if !want[e.Name] {
			return fmt.Errorf("directory lists %q, model does not", e.Name)
		}
	}
	return nil
}

// resetWindow discards what warm-up accumulated.
func (cl *client) resetWindow() {
	for k := range cl.lat {
		cl.lat[k] = cl.lat[k][:0]
	}
	cl.headLat = cl.headLat[:0]
	cl.spans = cl.spans[:0]
	cl.tally = tally{}
	// cl.failed is kept: a call that fails during warm-up still fails the run.
}

// loop issues iterations until the deadline, checking it before every
// call so a long iteration cannot overrun the window. It resets the
// window accounting when it crosses measureAt.
func (cl *client) loop(measureAt, deadline time.Time) {
	var ops []op
	measuring := false
	var began time.Time
	for iter := 1; ; iter++ {
		ops = cl.gen.next(ops[:0])
		// Spans are recorded on alternate pairs of iterations: a pair,
		// because meta_smallfile and stream_largefile alternate two kinds
		// of iteration.
		traced := cl.bed.trace && (iter/2)%2 == 0
		var root *span
		if traced {
			cl.spanID++
			root = &span{Client: cl.id, Iter: iter, ID: cl.spanID, Name: "iteration"}
		}
		iterStart := time.Now()
		before := cl.ops
		for i := range ops {
			now := time.Now()
			if !measuring && !now.Before(measureAt) {
				cl.resetWindow()
				measuring, began, iterStart, before = true, now, now, 0
			}
			if !now.Before(deadline) {
				cl.elapsed = now.Sub(began)
				return
			}
			cl.do(&ops[i], root)
		}
		iterEnd := time.Now()
		if traced {
			root.Start, root.End = int64(iterStart.Sub(cl.bed.epoch)), int64(iterEnd.Sub(cl.bed.epoch))
			cl.spans = append(cl.spans, *root)
			cl.tracedOps += cl.ops - before
			cl.tracedNs += int64(iterEnd.Sub(iterStart))
		} else {
			cl.plainOps += cl.ops - before
			cl.plainNs += int64(iterEnd.Sub(iterStart))
		}
	}
}

// hostClock is the second clock: what the Go code cost the host.
type hostClock struct {
	cpu    time.Duration // user + system of the whole process
	allocs uint64
	gcs    uint32
	gcNs   uint64
}

func readHostClock() hostClock {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostClock{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs, gcs: ms.NumGC, gcNs: ms.PauseTotalNs,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// window is what one measured window produced.
type window struct {
	tally                    // summed over the clients
	opsPerSec        float64 // sum of each client's own rate
	head             []int64 // sorted headline latencies, ns
	lat              [numKinds][]int64
	host             hostClock // deltas over the window
	layers           layerDelta
	traceOverheadPct float64
}

// runWindow warms up, then measures for the given time.
func (b *bed) runWindow(warmup, measure time.Duration) window {
	start := time.Now()
	measureAt := start.Add(warmup)
	deadline := measureAt.Add(measure)
	var wg sync.WaitGroup
	for _, cl := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop(measureAt, deadline)
		}()
	}
	time.Sleep(time.Until(measureAt))
	b.resetSimStats()
	layers0 := b.readLayers()
	host0 := readHostClock()
	wg.Wait()
	host1 := readHostClock()
	layers1 := b.readLayers()

	w := window{layers: layers1.sub(layers0)}
	w.host = hostClock{cpu: host1.cpu - host0.cpu, allocs: host1.allocs - host0.allocs,
		gcs: host1.gcs - host0.gcs, gcNs: host1.gcNs - host0.gcNs}
	for _, cl := range b.clients {
		w.add(cl.tally)
		w.opsPerSec += float64(cl.ops) / cl.elapsed.Seconds()
		w.head = append(w.head, cl.headLat...)
		for k := range cl.lat {
			w.lat[k] = append(w.lat[k], cl.lat[k]...)
		}
	}
	slices.Sort(w.head)
	for k := range w.lat {
		slices.Sort(w.lat[k])
	}
	w.traceOverheadPct = unresolved
	if w.tracedNs > 0 && w.plainNs > 0 && w.plainOps > 0 {
		plain := float64(w.plainOps) / float64(w.plainNs)
		w.traceOverheadPct = (plain - float64(w.tracedOps)/float64(w.tracedNs)) / plain * 100
	}
	return w
}

// quantile of a sorted sample, nearest rank.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return unresolved
	}
	return float64(sorted[int(q*float64(len(sorted)-1)+0.5)])
}

// verify is the oracle's last word: after both servers sync, every live
// file is read back through the server that did not write it, every
// directory is listed, and the offline checker runs. It returns how many
// checks it made; failures go to the bed's log.
func (b *bed) verify() (checks, failed int64) {
	for _, cl := range b.clients {
		if err := cl.fs.Sync(); err != nil {
			failed++
			b.errs.add("final sync on %s: %v", cl.fs.Machine(), err)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, cl := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			other := b.clients[1-cl.id].fs
			buf := make([]byte, streamRec)
			var floors []uint64
			var n, bad int64
			for path, m := range cl.model.files {
				n++
				if err := readBack(other, path, m, b.noise, buf, &floors); err != nil {
					bad++
					b.errs.add("read back %s from %s: %v", path, other.Machine(), err)
				}
			}
			mu.Lock()
			checks, failed = checks+n, failed+bad
			mu.Unlock()
		}()
	}
	wg.Wait()

	dirs := map[string]map[string]bool{}
	for _, cl := range b.clients {
		for d, names := range cl.model.dirs {
			if dirs[d] == nil {
				dirs[d] = map[string]bool{}
			}
			for name := range names {
				dirs[d][name] = true
			}
		}
	}
	for d, want := range dirs {
		checks++
		got, err := b.clients[0].fs.ReadDir(d)
		if err == nil {
			err = sameNames(got, want)
		}
		if err != nil {
			failed++
			b.errs.add("list %s: %v", d, err)
		}
	}

	checks++
	rep, err := b.cluster.Fsck()
	switch {
	case err != nil:
		failed++
		b.errs.add("fsck: %v", err)
	case !rep.OK():
		failed++
		b.errs.add("fsck: %d problems, first: %v", len(rep.Problems), rep.Problems[0])
	}
	return checks, failed
}

func readBack(fs *frangipani.FS, path string, m *fileModel, nz noise, buf []byte, floors *[]uint64) error {
	info, err := fs.Stat(path)
	if err != nil {
		return err
	}
	size := m.size.Load()
	if info.Size != size {
		return fmt.Errorf("size %d, model has %d", info.Size, size)
	}
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	for off := int64(0); off < size; off += int64(len(buf)) {
		want := buf[:min(int64(len(buf)), size-off)]
		*floors = m.floors(*floors, off, len(want))
		n, err := f.ReadAt(want, off)
		if err != nil && !(err == io.EOF && n == len(want)) {
			return err
		}
		if n != len(want) {
			return fmt.Errorf("short read at %d: %d of %d", off, n, len(want))
		}
		if err := m.check(nz, want, off, *floors); err != nil {
			return err
		}
	}
	return nil
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: warning: "+format+"\n", args...)
}
