package main

import (
	"math/rand"
	"strconv"
)

// opKind is one public call into the file system. The names are the
// ones the fs.<kind>_p50_ms per-layer metrics and the spans carry.
type opKind uint8

const (
	opMkdir opKind = iota
	opCreate
	opOpen
	opWrite
	opFsync
	opStat
	opReaddir
	opRead
	opRename
	opRemove
	opRmdir
	numKinds
)

var kindNames = [numKinds]string{
	"mkdir", "create", "open", "write", "fsync", "stat", "readdir", "read", "rename", "remove", "rmdir",
}

func (k opKind) String() string { return kindNames[k] }

// op is one generated call. A generator knows nothing of the program:
// it emits paths, sizes and offsets, and the client executes them.
type op struct {
	kind  opKind
	path  string
	path2 string // rename destination
	off   int64
	size  int  // bytes to read or write; for create, the file's largest size
	owner int  // client whose model holds path (the file's writer)
	head  bool // this is the workload's headline op
}

// generator produces one client's calls from the seed alone, so the
// same seed replays the same sequence however long each call takes.
type generator interface {
	// prefill returns the set-up calls in stages; every client finishes
	// stage i before any client starts stage i+1.
	prefill() [][]op
	// next appends the calls of the client's next iteration to buf.
	next(buf []op) []op
}

// sizes scales a workload. The benchmark runs full; the smoke test runs
// tiny.
type sizes struct {
	metaFiles   int   // files per directory in meta_smallfile
	metaMaxKB   int   // largest small file
	streamBytes int64 // one stream file
	streamTurn  int64 // bytes written, or read, per iteration
	streamSrc   int   // read-set files per client
	hotBytes    int64 // the cached_hot file
	hotBatch    int   // calls per cached_hot iteration
}

var (
	// fullSizes: the stream read set (3 x 2 MB per client) exceeds the
	// 4 MB data cache, so every pass is uncached; the hot file fits it.
	fullSizes = sizes{metaFiles: 10, metaMaxKB: 16, streamBytes: 2 << 20, streamTurn: 512 << 10, streamSrc: 3, hotBytes: 2 << 20, hotBatch: 100}
	tinySizes = sizes{metaFiles: 3, metaMaxKB: 8, streamBytes: 256 << 10, streamTurn: 128 << 10, streamSrc: 2, hotBytes: 256 << 10, hotBatch: 20}
)

const (
	streamRec  = 64 << 10
	streamDst  = 2 // files a client rewrites in rotation
	sharedSize = 64 << 10
)

// workload names one closed-loop load and how to generate it.
type workload struct {
	name     string
	headline string // name of the op whose latency op_p50_ms reports
	newGen   func(seed int64, client int, sz sizes) generator
}

var workloads = []workload{
	{"meta_smallfile", "create", newMetaGen},
	{"stream_largefile", "write64k", newStreamGen},
	{"shared_contention", "handoff_read", newSharedGen},
	{"cached_hot", "read4k", newHotGen},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client)))
}

// meta_smallfile: a MAB/Connectathon-shaped loop in a private directory
// tree. Every iteration builds a directory of small files, stats, lists
// and reads them, renames one, and removes a whole directory: its own on
// odd iterations (files that die before the sync demon sees them), the
// one from two iterations back on even ones (files that lived through a
// write-back). At most two directories per client stay live, which
// bounds what the oracle reads back.
type metaGen struct {
	rng   *rand.Rand
	root  string
	sz    sizes
	iter  int
	owner int
	live  map[int][]metaFile // iteration -> files of its directory
}

type metaFile struct {
	path string
	size int
}

func newMetaGen(seed int64, client int, sz sizes) generator {
	return &metaGen{rng: clientRand(seed, client), root: "/m" + strconv.Itoa(client), sz: sz,
		owner: client, live: map[int][]metaFile{}}
}

func (g *metaGen) prefill() [][]op {
	return [][]op{{{kind: opMkdir, path: g.root, owner: g.owner}}}
}

func (g *metaGen) dir(iter int) string { return g.root + "/d" + strconv.Itoa(iter) }

func (g *metaGen) next(buf []op) []op {
	d := g.dir(g.iter)
	buf = append(buf, op{kind: opMkdir, path: d})
	files := make([]metaFile, g.sz.metaFiles)
	for j := range files {
		f := metaFile{path: d + "/f" + strconv.Itoa(j), size: (1 + g.rng.Intn(g.sz.metaMaxKB)) << 10}
		files[j] = f
		buf = append(buf,
			op{kind: opCreate, path: f.path, size: f.size, head: true},
			op{kind: opOpen, path: f.path},
			op{kind: opWrite, path: f.path, size: f.size})
		if j%5 == 4 {
			buf = append(buf, op{kind: opFsync, path: f.path})
		}
	}
	for _, f := range files {
		buf = append(buf, op{kind: opStat, path: f.path})
	}
	buf = append(buf, op{kind: opReaddir, path: d})
	for _, f := range files {
		buf = append(buf, op{kind: opOpen, path: f.path}, op{kind: opRead, path: f.path, size: f.size})
	}
	renamed := d + "/g0"
	buf = append(buf, op{kind: opRename, path: files[0].path, path2: renamed})
	files[0].path = renamed
	g.live[g.iter] = files

	victim := g.iter
	if g.iter%2 == 0 {
		victim = g.iter - 2
	}
	if vf, ok := g.live[victim]; ok {
		for _, f := range vf {
			buf = append(buf, op{kind: opRemove, path: f.path})
		}
		buf = append(buf, op{kind: opRmdir, path: g.dir(victim)})
		delete(g.live, victim)
	}
	for i := range buf {
		buf[i].owner = g.owner
	}
	g.iter++
	return buf
}

// stream_largefile: each client streams through its own files writing
// and through the files the other server prefilled reading, in turns of
// streamTurn bytes: one iteration writes the next turn of the current
// destination file in 64 KB records and fsyncs it, the next reads the
// next turn of the current source file. The turns are short against the
// window so that where the window cuts a write/read pair does not show
// in the rates; the files are still streamed end to end.
type streamGen struct {
	sz     sizes
	client int
	iter   int
}

func newStreamGen(_ int64, client int, sz sizes) generator {
	return &streamGen{sz: sz, client: client}
}

func (g *streamGen) src(client, k int) string {
	return "/s" + strconv.Itoa(client) + "/src" + strconv.Itoa(k)
}

func (g *streamGen) dst(k int) string {
	return "/s" + strconv.Itoa(g.client) + "/dst" + strconv.Itoa(k)
}

// write appends the writes of [lo, hi) of path and the fsync after them.
func (g *streamGen) write(buf []op, path string, lo, hi int64) []op {
	for off := lo; off < hi; off += streamRec {
		buf = append(buf, op{kind: opWrite, path: path, off: off, size: streamRec, owner: g.client, head: true})
	}
	return append(buf, op{kind: opFsync, path: path, owner: g.client})
}

func (g *streamGen) prefill() [][]op {
	own := []op{{kind: opMkdir, path: "/s" + strconv.Itoa(g.client), owner: g.client}}
	for k := 0; k < g.sz.streamSrc; k++ {
		p := g.src(g.client, k)
		own = append(own, op{kind: opCreate, path: p, size: int(g.sz.streamBytes), owner: g.client},
			op{kind: opOpen, path: p, owner: g.client})
		own = g.write(own, p, 0, g.sz.streamBytes)
	}
	for k := 0; k < streamDst; k++ {
		p := g.dst(k)
		own = append(own, op{kind: opCreate, path: p, size: int(g.sz.streamBytes), owner: g.client},
			op{kind: opOpen, path: p, owner: g.client})
	}
	var peer []op
	for k := 0; k < g.sz.streamSrc; k++ {
		peer = append(peer, op{kind: opOpen, path: g.src(1-g.client, k), owner: 1 - g.client})
	}
	return [][]op{own, peer}
}

func (g *streamGen) next(buf []op) []op {
	turns := g.sz.streamBytes / g.sz.streamTurn // per file
	turn := int64(g.iter / 2)                   // this client's turn number, per direction
	file, lo := int(turn/turns), turn%turns*g.sz.streamTurn
	if g.iter%2 == 0 {
		buf = g.write(buf, g.dst(file%streamDst), lo, lo+g.sz.streamTurn)
	} else {
		p := g.src(1-g.client, file%g.sz.streamSrc)
		for off := lo; off < lo+g.sz.streamTurn; off += streamRec {
			buf = append(buf, op{kind: opRead, path: p, off: off, size: streamRec, owner: 1 - g.client})
		}
	}
	g.iter++
	return buf
}

// shared_contention: client 0 overwrites 4 KB records of /shared/data
// while client 1 reads all 64 KB of it, so the file's lock changes hands
// on every iteration; every fourth iteration the writer also fsyncs and
// both create and remove disjoint names in /shared/dir, so the
// directory's lock changes hands too. The directory calls are the rarer
// ones so that the window holds enough handoff reads for a tail.
type sharedGen struct {
	rng    *rand.Rand
	client int
	iter   int
}

const (
	sharedData  = "/shared/data"
	sharedDir   = "/shared/dir"
	sharedEvery = 4 // iterations between fsyncs and between directory calls
)

func newSharedGen(seed int64, client int, _ sizes) generator {
	return &sharedGen{rng: clientRand(seed, client), client: client}
}

func (g *sharedGen) prefill() [][]op {
	if g.client == 1 {
		return [][]op{nil, {{kind: opOpen, path: sharedData, owner: 0}}}
	}
	return [][]op{{
		{kind: opMkdir, path: "/shared"},
		{kind: opMkdir, path: sharedDir},
		{kind: opCreate, path: sharedData, size: sharedSize},
		{kind: opOpen, path: sharedData},
		{kind: opWrite, path: sharedData, size: sharedSize},
		{kind: opFsync, path: sharedData},
	}, nil}
}

func (g *sharedGen) name(iter int) string {
	return sharedDir + "/" + string(rune('a'+g.client)) + strconv.Itoa(iter)
}

func (g *sharedGen) next(buf []op) []op {
	if g.client == 0 {
		rec := int64(g.rng.Intn(sharedSize / recSize))
		buf = append(buf, op{kind: opWrite, path: sharedData, off: rec * recSize, size: recSize})
		if g.iter%sharedEvery == sharedEvery-1 {
			buf = append(buf, op{kind: opFsync, path: sharedData})
		}
	} else {
		buf = append(buf, op{kind: opRead, path: sharedData, size: sharedSize, owner: 0, head: true})
	}
	if g.iter%sharedEvery == 0 {
		buf = append(buf, op{kind: opCreate, path: g.name(g.iter), size: recSize, owner: g.client})
		if g.iter > 0 {
			buf = append(buf, op{kind: opRemove, path: g.name(g.iter - sharedEvery), owner: g.client})
		}
	}
	g.iter++
	return buf
}

// cached_hot: random 4 KB reads (70 %), stats (15 %) and 4 KB overwrites
// without fsync (15 %) on a private file that fits the data cache. No
// call waits for an RPC or a disk, so what is left is the Go code's own
// cost.
type hotGen struct {
	rng    *rand.Rand
	sz     sizes
	client int
	path   string
}

func newHotGen(seed int64, client int, sz sizes) generator {
	return &hotGen{rng: clientRand(seed, client), sz: sz, client: client, path: "/h" + strconv.Itoa(client) + "/hot"}
}

func (g *hotGen) prefill() [][]op {
	own := []op{
		{kind: opMkdir, path: "/h" + strconv.Itoa(g.client), owner: g.client},
		{kind: opCreate, path: g.path, size: int(g.sz.hotBytes), owner: g.client},
		{kind: opOpen, path: g.path, owner: g.client},
	}
	for off := int64(0); off < g.sz.hotBytes; off += streamRec {
		own = append(own, op{kind: opWrite, path: g.path, off: off, size: streamRec, owner: g.client})
	}
	return [][]op{append(own, op{kind: opFsync, path: g.path, owner: g.client})}
}

func (g *hotGen) next(buf []op) []op {
	for i := 0; i < g.sz.hotBatch; i++ {
		off := int64(g.rng.Intn(int(g.sz.hotBytes/recSize))) * recSize
		o := op{kind: opRead, path: g.path, off: off, size: recSize, owner: g.client, head: true}
		switch r := g.rng.Intn(100); {
		case r >= 85:
			o = op{kind: opWrite, path: g.path, off: off, size: recSize, owner: g.client}
		case r >= 70:
			o = op{kind: opStat, path: g.path, owner: g.client}
		}
		buf = append(buf, o)
	}
	return buf
}
