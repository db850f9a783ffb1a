package petal

import (
	"cmp"
	"maps"
	"slices"
	"sync"
	"time"

	"frangipani/internal/bufpool"
	"frangipani/internal/obs"
	"frangipani/internal/paxos"
	"frangipani/internal/rpc"
	"frangipani/internal/sim"
)

// ServerConfig sizes one Petal server.
type ServerConfig struct {
	// Disks per server and per-disk parameters. The paper's servers
	// each had 9 RZ29 drives.
	NumDisks   int
	DiskParams sim.DiskParams
	// NVRAM, if > 0, places a PrestoServe-like write buffer of this
	// many bytes in front of every disk.
	NVRAM int
	// Heartbeat timing for the failure detector.
	HeartbeatEvery sim.Duration
	SuspectAfter   sim.Duration
	// WriteGuard, if non-nil, can reject writes (lease validation).
	// It receives the lease expiry a client write is stamped with and
	// the current simulated time in ns.
	WriteGuard func(expireAt, now int64) bool
	// NoReplicate disables write forwarding to the partner replica —
	// an ablation knob for the Figure 7 replication-cost study. Only
	// safe in failure-free runs.
	NoReplicate bool
}

// DefaultServerConfig mirrors the paper's testbed per-server sizing,
// scaled to the given per-disk capacity.
func DefaultServerConfig(diskCapacity int64) ServerConfig {
	return ServerConfig{
		NumDisks:       9,
		DiskParams:     sim.DefaultDiskParams(diskCapacity),
		HeartbeatEvery: 250 * time.Millisecond,
		SuspectAfter:   1500 * time.Millisecond,
	}
}

// Server is one Petal storage server. Servers replicate chunk writes
// pairwise, share the virtual-disk directory via Paxos, and detect
// each other's failures by heartbeat.
type Server struct {
	name string
	w    *sim.World
	cfg  ServerConfig
	ep   *rpc.Endpoint
	px   *paxos.Node
	det  *paxos.Detector
	cpu  *sim.CPU
	st   *store

	mu      sync.Mutex
	state   GlobalState
	missed  map[string]map[chunkKey]uint64 // partner -> keys it missed -> missSeq of the latest miss
	missSeq uint64
	crashed bool
	closed  bool

	rejoinMu sync.Mutex // serializes rejoin passes
	aeCancel func()
	nvs      []*sim.NVRAM

	addrs map[string]string // DataAddr of each peer, made once

	tr       *obs.Tracer
	reqC     *obs.Counter
	inflight *obs.Gauge        // data-path requests currently being served
	depthHi  *obs.Gauge        // high-water mark of inflight (queue depth)
	missedG  *obs.Gauge        // replica-lag backlog: chunks partners missed
	acct     *obs.AccountTable // per-principal server-op attribution
	jr       *obs.Journal      // flight recorder (nil-safe)
}

const dataTimeout = 5 * time.Second

// DataAddr returns the network name of a server's data endpoint.
func DataAddr(name string) string { return name + ".petal" }

// dataAddrs maps each of servers to its DataAddr: the data path looks a
// server's address up instead of building the string for every call.
func dataAddrs(servers []string) map[string]string {
	m := make(map[string]string, len(servers))
	for _, srv := range servers {
		m[srv] = DataAddr(srv)
	}
	return m
}

// addrOf is DataAddr through a table from dataAddrs.
func addrOf(addrs map[string]string, srv string) string {
	if a, ok := addrs[srv]; ok {
		return a
	}
	return DataAddr(srv)
}

// NewServer creates (but does not interconnect) one Petal server.
// peers must list all Petal server names including this one; the set
// is fixed for the life of the cluster, as in our Paxos layer.
func NewServer(w *sim.World, name string, peers []string, cfg ServerConfig) *Server {
	return NewServerWithCarrier(w, name, peers, cfg, rpc.SimCarrier{Net: w.Net})
}

// NewServerWithCarrier creates a Petal server on an explicit message
// carrier (TCP for daemon deployments, sim for tests).
func NewServerWithCarrier(w *sim.World, name string, peers []string, cfg ServerConfig, carrier rpc.Carrier) *Server {
	s := &Server{
		name:   name,
		w:      w,
		cfg:    cfg,
		cpu:    w.CPU(name),
		state:  NewGlobalState(peers),
		missed: make(map[string]map[chunkKey]uint64),
		addrs:  dataAddrs(peers),
	}
	var disks []*sim.Disk
	var nvs []*sim.NVRAM
	for i := 0; i < cfg.NumDisks; i++ {
		d := sim.NewDisk(w.Clock, name, cfg.DiskParams)
		disks = append(disks, d)
		if cfg.NVRAM > 0 {
			nvs = append(nvs, sim.NewNVRAM(w.Clock, d, cfg.NVRAM, 50*time.Microsecond))
		} else {
			nvs = append(nvs, nil)
		}
	}
	s.nvs = nvs
	s.st = newStore(disks, nvs)
	s.tr = w.Obs.Tracer()
	if reg := w.Obs; reg != nil {
		s.reqC = reg.Counter("petal.server.requests#" + name)
		s.inflight = reg.Gauge("petal.server.inflight#" + name)
		s.depthHi = reg.Gauge("petal.server.inflight.peak#" + name)
		s.missedG = reg.Gauge("petal.server.missed#" + name)
		s.acct = reg.Accounts()
		s.jr = reg.Journal(name)
	}

	s.px = paxos.NewNode(name, peers, carrier, w.Clock, s.applyCmd)
	s.det = paxos.NewDetector(name, peers, carrier, w.Clock,
		cfg.HeartbeatEvery, cfg.SuspectAfter, s.onLiveness)
	s.det.Start() // once s.det is set: onLiveness reads it
	s.ep = rpc.NewEndpoint(DataAddr(name), carrier, w.Clock, s.handle)
	s.aeCancel = w.Clock.Tick(cfg.SuspectAfter, s.antiEntropy)
	return s
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Disks exposes the server's raw disks for fault injection in tests.
func (s *Server) Disks() []*sim.Disk { return s.st.disks }

// CommittedBytes reports committed physical space on this server.
func (s *Server) CommittedBytes() int64 { return s.st.committedBytes() }

// State returns a copy of the server's view of the global state.
func (s *Server) State() GlobalState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Clone()
}

// applyCmd is the Paxos applier: all servers apply the same commands
// in the same order.
func (s *Server) applyCmd(seq int64, cmd paxos.Command) {
	s.mu.Lock()
	_ = s.state.Apply(cmd)
	s.mu.Unlock()
}

// onLiveness reacts to failure-detector transitions. The lowest-named
// live server proposes the liveness change into the global state;
// proposals are idempotent there.
func (s *Server) onLiveness(peer string, alive bool) {
	if s.isDown() {
		return
	}
	if alive {
		// The rejoiner proposes itself alive after resync; nothing to
		// do here.
		return
	}
	s.mu.Lock()
	already := !s.state.Alive[peer]
	s.mu.Unlock()
	if already || !s.amCoordinator() {
		return
	}
	s.jr.Record("petal", "replica", "death", 0, 0, peer)
	go func() {
		_ = s.px.Submit(CmdSetAlive{Server: peer, Alive: false}, 60*time.Second)
	}()
}

// amCoordinator reports whether this server is the lowest-named one
// it currently believes alive.
func (s *Server) amCoordinator() bool {
	for _, p := range s.det.Members() {
		if p == s.name {
			return true
		}
		if s.det.Alive(p) {
			return false
		}
	}
	return true
}

func (s *Server) isDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed || s.closed
}

// handle serves the Petal data and control protocol.
func (s *Server) handle(from string, body any) any {
	if s.isDown() {
		// The request will never be served; recycle any pooled
		// receive buffer its payload occupies.
		rpc.Release(body)
		return nil
	}
	s.reqC.Inc()
	// Requests sent on behalf of an operation say so in their header:
	// the work is charged to the originating client, not to the server.
	switch m := body.(type) {
	case ReadVReq:
		return s.spanned("server.readv", m.Ctx, func(*obs.Span) any { return s.onReadV(m) })
	case WriteVReq:
		return s.spanned("server.writev", m.Ctx, func(sp *obs.Span) any { return s.onWriteV(sp, m) })
	case DecommitReq:
		s.acct.ServerOp(m.Ctx.Principal)
		return s.onDecommit(m)
	}
	s.acct.ServerOp(obs.UnknownPrincipal) // control traffic is nobody's operation
	switch m := body.(type) {
	case AdminReq:
		return s.onAdmin(m)
	case StateReq:
		s.mu.Lock()
		if s.state.Version <= m.HaveVersion {
			// Client is current: answer without cloning or shipping
			// the directory (incremental refresh fast path).
			v := s.state.Version
			s.mu.Unlock()
			return StateResp{OK: true, Unchanged: true, Version: v}
		}
		st := s.state.Clone()
		s.mu.Unlock()
		return StateResp{OK: true, Version: st.Version, State: st}
	case RepairReq:
		s.repair(m.For)
		return AdminResp{OK: true}
	case PushChunkReq:
		if err := s.st.putRaw(m.Key, m.Data); err != nil {
			return AdminResp{Err: err.Error()}
		}
		return AdminResp{OK: true}
	case ListChunksReq:
		s.mu.Lock()
		base, ceiling, _, err := s.state.resolve(m.VDisk)
		s.mu.Unlock()
		if err != nil {
			return ListChunksResp{}
		}
		return ListChunksResp{Chunks: s.st.visibleChunks(base, ceiling)}
	case UsageReq:
		return UsageResp{Bytes: s.st.committedBytes()}
	}
	return nil
}

// spanned runs a data-path handler for the operation its request
// names: charged to that operation's principal and, when the request
// arrived with trace context, under a server-side span that joins the
// sender's trace (fn gets it, to hand on). It tracks the server's
// in-flight request count and its high-water mark.
func (s *Server) spanned(op string, ctx obs.Ctx, fn func(sp *obs.Span) any) any {
	s.acct.ServerOp(ctx.Principal)
	s.inflight.Add(1)
	s.depthHi.SetMax(s.inflight.Value())
	defer s.inflight.Add(-1)
	sp := s.tr.Remote(s.jr, ctx, "petal", op)
	defer sp.Done()
	return fn(sp)
}

// MissedBacklog reports the number of chunk writes this server's
// partners have missed and not yet received via repair — the
// replica-lag signal for health probing. The mirror gauge
// "petal.server.missed#name" is refreshed as a side effect.
func (s *Server) MissedBacklog() int {
	s.mu.Lock()
	n := 0
	for _, keys := range s.missed {
		n += len(keys)
	}
	s.mu.Unlock()
	s.missedG.Set(int64(n))
	return n
}

// antiEntropy repairs, every SuspectAfter, the partners alive in the
// global state that missed writes: replication broken by transient
// forward failures. A partner restarting after a declared crash asks
// for its repair itself (rejoin).
func (s *Server) antiEntropy() {
	if s.isDown() {
		return
	}
	s.mu.Lock()
	var partners []string
	for p, keys := range s.missed {
		if len(keys) > 0 && s.state.Alive[p] {
			partners = append(partners, p)
		}
	}
	s.mu.Unlock()
	for _, p := range partners {
		s.repair(p)
	}
}

// repair pushes partner p every chunk it missed, whole, dropping each
// from the missed set once p has stored it — unless p missed the chunk
// again while the push was out, which the push may not carry. It stops
// at the first push p does not answer.
func (s *Server) repair(p string) {
	s.mu.Lock()
	keys := maps.Clone(s.missed[p])
	s.mu.Unlock()
	if len(keys) > 0 {
		s.jr.Record("petal", "replica", "resync", 0, int64(len(keys)), p)
	}
	for key, seq := range keys {
		data, ok, err := s.st.getRaw(key)
		if err != nil || !ok {
			continue
		}
		resp, err := s.ep.Call(addrOf(s.addrs, p), PushChunkReq{Key: key, Data: data}, dataTimeout)
		if err != nil {
			return // p still unreachable; try next period
		}
		if ar, ok := resp.(AdminResp); ok && ar.OK {
			s.mu.Lock()
			if s.missed[p][key] == seq {
				delete(s.missed[p], key)
			}
			s.mu.Unlock()
		}
	}
}

// The data path's modelled CPU cost: per request, and per KB carried.
const (
	cpuPerOp = 30 * time.Microsecond
	cpuPerKB = 1 * time.Microsecond
)

func (s *Server) chargeCPU(bytes int) {
	s.cpu.Use(cpuPerOp + sim.Duration(bytes/1024)*cpuPerKB)
}

// readVServePar bounds concurrent store reads while serving one
// read; the disk arms serialize actual media time.
const readVServePar = 16

// readJob is what one onReadV's concurrent extent reads share. It comes
// from readJobs and goes back when the read is served; serve is the
// bound readExtent the fan-out runs, made once per readJob rather than
// once per read.
type readJob struct {
	s       *Server
	base    VDiskID
	ceiling int64
	exts    []ReadVExtent
	results []ReadVExtentResult
	serve   func(i int) error
}

var readJobs = sync.Pool{New: func() any {
	j := new(readJob)
	j.serve = j.readExtent
	return j
}}

// onReadV serves a read: the vdisk resolves once, then every extent
// is read from the local store with bounded parallelism. Reads don't
// modify anything, so unlike applyExtents no conflict chaining is
// needed. Extent failures (e.g. a CRC error) are reported per extent
// so the client can fail over only the damaged pieces. The extents'
// data lies in one pooled buffer that the reply carries, and whoever
// consumes the reply gives back (rpc.Release); one that is never
// consumed leaves it to the collector.
func (s *Server) onReadV(m ReadVReq) any {
	total, size := 0, 0
	for _, e := range m.Extents {
		total += e.Len
		if readable(e) {
			size += e.Len
		}
	}
	s.chargeCPU(total)
	s.mu.Lock()
	base, ceiling, _, err := s.state.resolve(m.VDisk)
	s.mu.Unlock()
	if err != nil {
		return ReadVResp{Err: err.Error()}
	}
	bufp := bufpool.Get(size)
	buf := *bufp
	results := make([]ReadVExtentResult, len(m.Extents))
	for i, e := range m.Extents {
		if !readable(e) {
			results[i].Err = ErrBounds.Error()
			continue
		}
		results[i].Data, buf = buf[:e.Len:e.Len], buf[e.Len:]
	}
	j := readJobs.Get().(*readJob)
	j.s, j.base, j.ceiling, j.exts, j.results = s, base, ceiling, m.Extents, results
	_ = BoundedPar(readVServePar, len(results), j.serve)
	*j = readJob{serve: j.serve}
	readJobs.Put(j)
	return ReadVResp{OK: true, Results: results, wb: rpc.NewRecvBuf(bufp)}
}

// readable reports whether a read extent lies within its chunk.
func readable(e ReadVExtent) bool {
	return e.Off >= 0 && e.Len >= 0 && e.Off+e.Len <= ChunkSize
}

// readExtent reads extent i into its result's Data.
func (j *readJob) readExtent(i int) error {
	r := &j.results[i]
	if r.Err != "" {
		return nil
	}
	e := j.exts[i]
	committed, err := j.s.st.readChunk(j.base, e.Chunk, j.ceiling, e.Off, r.Data)
	if err != nil || !committed {
		// A hole comes back OK with nil Data: it reads as zeros.
		r.Data = nil
	}
	if err != nil {
		r.Err = err.Error()
		return nil
	}
	r.OK = true
	return nil
}

// resolveWriteEpoch maps a vdisk to its writable (base, ceiling)
// pair for a write stamped with epoch. If the writer's epoch is ahead
// the server waits for its Paxos apply loop to catch up; a writer
// behind a snapshot gets ErrStaleEpoch (refresh and retry).
func (s *Server) resolveWriteEpoch(v VDiskID, epoch int64) (base VDiskID, ceiling int64, st GlobalState, errStr string) {
	var writable bool
	waitLimit := s.w.Clock.Now() + sim.Time(dataTimeout)
	for {
		s.mu.Lock()
		var err error
		base, ceiling, writable, err = s.state.resolve(v)
		st = s.state
		s.mu.Unlock()
		if err != nil {
			return "", 0, st, err.Error()
		}
		if epoch == 0 || ceiling >= epoch {
			break
		}
		if s.w.Clock.Now() >= waitLimit || s.isDown() {
			return "", 0, st, ErrUnavailable.Error()
		}
		s.w.Clock.Sleep(20 * time.Millisecond)
	}
	if !writable {
		return "", 0, st, ErrReadOnly.Error()
	}
	if epoch != 0 && ceiling > epoch {
		return "", 0, st, ErrStaleEpoch.Error()
	}
	if epoch != 0 {
		ceiling = epoch
	}
	return base, ceiling, st, ""
}

// writeVOK is the reply to every write that succeeds, boxed once.
var writeVOK any = WriteVResp{OK: true}

// writeJob is one onWriteV's scratch and what its concurrent jobs
// share: the write's forwards to its partners and the serial units its
// extents are cut into. It comes from writeJobs and goes back once the
// write is answered — unless a forward went unanswered, whose request
// may still be queued at the carrier with an extent list of the job's.
// run and apply are the bound fan-out functions, made once per writeJob
// rather than once per write.
type writeJob struct {
	s       *Server
	ctx     obs.Ctx // of the write here: a forward's span is a child of this server's
	vdisk   VDiskID
	base    VDiskID
	ceiling int64
	st      GlobalState
	local   string // the local apply's error, or ""
	fws     []forward
	sorted  []WriteVExtent // the extents in address order, when they came in another
	units   [][]WriteVExtent

	run, apply func(i int) error
}

var writeJobs = sync.Pool{New: func() any {
	j := new(writeJob)
	j.run, j.apply = j.runJob, j.applyUnit
	return j
}}

// release gives j back to writeJobs, pointing at nothing, unless a
// forward of it went unanswered.
func (j *writeJob) release() {
	for _, fw := range j.fws {
		if fw.leaked {
			return
		}
	}
	for _, fw := range j.fws[:cap(j.fws)] {
		clear(fw.exts[:cap(fw.exts)])
	}
	clear(j.sorted[:cap(j.sorted)])
	clear(j.units[:cap(j.units)])
	*j = writeJob{fws: j.fws[:0], sorted: j.sorted[:0], units: j.units[:0], run: j.run, apply: j.apply}
	writeJobs.Put(j)
}

// onWriteV applies a write: one lease check and one epoch resolution
// cover every extent, then the extents land on the local store while,
// at the same time, they are forwarded to the partner replicas — Petal's
// primary sends to the second copy and to its local disk simultaneously.
// Forwards go grouped by partner, so a batch stays batched on the
// replica hop too, and the partners are called in parallel. A local
// failure fails the request, though a forward may by then have been
// applied: the client's retry at the other replica converges the two.
func (s *Server) onWriteV(sp *obs.Span, m WriteVReq) any {
	// On TCP, extent data aliases a pooled receive buffer. Once the
	// store has copied the bytes and any replica forward has completed,
	// the buffer is recycled — unless a forward timed out, in which
	// case the payload may still be queued at the carrier and the
	// buffer must leak to the garbage collector instead.
	leaked := false
	defer func() {
		if !leaked {
			m.ReleaseWire()
		}
	}()
	total := 0
	for _, e := range m.Extents {
		total += len(e.Data)
	}
	s.chargeCPU(total)
	if g := s.cfg.WriteGuard; g != nil && !m.Forwarded &&
		!g(m.ExpireAt, int64(s.w.Clock.Now())) {
		return WriteVResp{Err: ErrLeaseExpired.Error()}
	}
	base, ceiling, st, errStr := s.resolveWriteEpoch(m.VDisk, m.Epoch)
	if errStr != "" {
		return WriteVResp{Err: errStr}
	}
	for _, e := range m.Extents {
		if e.Off < 0 || e.Off+len(e.Data) > ChunkSize {
			return WriteVResp{Err: ErrBounds.Error()}
		}
	}
	j := writeJobs.Get().(*writeJob)
	j.s, j.ctx, j.vdisk, j.base, j.ceiling, j.st = s, sp.Ctx(), m.VDisk, base, ceiling, st
	if !m.Forwarded && !s.cfg.NoReplicate {
		j.forward(m.Extents)
	}
	j.cut(m.Extents)
	// Job 0 is the local apply, job i the forward to partner i-1; each
	// writes only its own result.
	_ = BoundedPar(1+len(j.fws), 1+len(j.fws), j.run)
	for _, fw := range j.fws {
		leaked = leaked || fw.leaked
	}
	errStr = j.local
	if errStr == "" {
		s.noteMissed(j.fws, j.base, j.ceiling)
	}
	j.release()
	if errStr != "" {
		return WriteVResp{Err: errStr}
	}
	return writeVOK
}

// runJob is job i of a write: 0 its local apply, i the forward to its
// partner i-1.
func (j *writeJob) runJob(i int) error {
	if i == 0 {
		j.local = j.applyExtents()
	} else {
		j.s.replicate(j.ctx, &j.fws[i-1], j.vdisk, j.ceiling, &j.st)
	}
	return nil
}

// writeVApplyPar bounds concurrent store writes while applying one
// batch; the disk arms serialize actual media time.
const writeVApplyPar = 16

// applyExtents applies the write's units to the local store with
// bounded parallelism — the disk-level half of scatter-gather. Returns
// the first error string, or "".
func (j *writeJob) applyExtents() string {
	if err := BoundedPar(writeVApplyPar, len(j.units), j.apply); err != nil {
		return err.Error()
	}
	return ""
}

// applyUnit writes unit i's extents to the local store, in order.
func (j *writeJob) applyUnit(i int) error {
	for _, e := range j.units[i] {
		if err := j.s.st.writeChunk(j.base, e.Chunk, j.ceiling, e.Off, e.Data); err != nil {
			return err
		}
	}
	return nil
}

// cut orders exts by (chunk, offset) and cuts the sequence into j.units,
// runs whose sector-aligned spans overlap: each run is one serial unit,
// so read-modify-write at a shared edge sector stays ordered while
// everything else proceeds concurrently.
func (j *writeJob) cut(exts []WriteVExtent) {
	byAddr := func(a, b WriteVExtent) int {
		return cmp.Or(cmp.Compare(a.Chunk, b.Chunk), cmp.Compare(a.Off, b.Off))
	}
	if !slices.IsSortedFunc(exts, byAddr) {
		// The slice belongs to the request; order a copy.
		j.sorted = append(j.sorted[:0], exts...)
		slices.SortStableFunc(j.sorted, byAddr)
		exts = j.sorted
	}
	j.units = j.units[:0]
	start, unitHi := 0, int64(0) // current unit's first extent and aligned end
	for i, e := range exts {
		lo := int64(e.Off) &^ (sim.SectorSize - 1)
		hi := (int64(e.Off+len(e.Data)) + sim.SectorSize - 1) &^ (sim.SectorSize - 1)
		if i > start && (e.Chunk != exts[start].Chunk || lo >= unitHi) {
			j.units = append(j.units, exts[start:i])
			start, unitHi = i, 0
		}
		unitHi = max(unitHi, hi)
	}
	j.units = append(j.units, exts[start:])
}

// forward is the share of a client write one partner replicates, and
// how sending it went: done when the partner applied it, leaked when
// the call errored — the request payload may still be queued at the
// carrier, so the receive buffer it aliases must not be recycled.
type forward struct {
	partner      string
	exts         []WriteVExtent
	done, leaked bool
}

// forward groups a client write's extents into j.fws by the partner
// that holds their second copy, so each partner receives one request.
// A pooled job's forwards keep their extent lists' room.
func (j *writeJob) forward(exts []WriteVExtent) {
	j.fws = j.fws[:0]
	for _, e := range exts {
		p1, p2 := j.st.replicas(j.base, e.Chunk)
		partner := p1
		if p1 == j.s.name {
			partner = p2
		}
		if partner == "" || partner == j.s.name {
			continue
		}
		k := 0
		for k < len(j.fws) && j.fws[k].partner != partner {
			k++
		}
		if k == len(j.fws) {
			j.fws = slices.Grow(j.fws, 1)[:k+1]
			j.fws[k] = forward{partner: partner, exts: j.fws[k].exts[:0]}
		}
		j.fws[k].exts = append(j.fws[k].exts, e)
	}
}

// replicate sends one partner its share of a client write, unless the
// partner is known to be down. ctx is the context of that write here:
// the partner's span becomes a child of this server's.
func (s *Server) replicate(ctx obs.Ctx, fw *forward, v VDiskID, epoch int64, st *GlobalState) {
	s.mu.Lock()
	partnerAlive := st.Alive[fw.partner]
	s.mu.Unlock()
	if !partnerAlive {
		return
	}
	req := WriteVReq{Ctx: ctx, VDisk: v, Extents: fw.exts, Forwarded: true, Epoch: epoch}
	resp, err := s.ep.Call(addrOf(s.addrs, fw.partner), req, dataTimeout)
	if err != nil {
		fw.leaked = true
		return
	}
	wr, ok := resp.(WriteVResp)
	fw.done = ok && wr.OK
}

// noteMissed records, chunk by chunk, the extents of a locally applied
// write whose partner was down, unreachable or refused the forward, so
// repair can push the whole chunk image.
func (s *Server) noteMissed(fws []forward, base VDiskID, epoch int64) {
	for _, fw := range fws {
		if fw.done {
			continue
		}
		s.mu.Lock()
		mm := s.missed[fw.partner]
		if mm == nil {
			mm = make(map[chunkKey]uint64)
			s.missed[fw.partner] = mm
		}
		s.missSeq++
		for _, e := range fw.exts {
			mm[chunkKey{base, e.Chunk, epoch}] = s.missSeq
		}
		s.mu.Unlock()
	}
}

func (s *Server) onDecommit(m DecommitReq) AdminResp {
	s.chargeCPU(0)
	s.mu.Lock()
	base, ceiling, writable, err := s.state.resolve(m.VDisk)
	s.mu.Unlock()
	if err != nil {
		return AdminResp{Err: err.Error()}
	}
	if !writable {
		return AdminResp{Err: ErrReadOnly.Error()}
	}
	s.st.decommitRange(base, m.FirstChunk, m.LastChunk, ceiling)
	return AdminResp{OK: true}
}

func (s *Server) onAdmin(m AdminReq) AdminResp {
	// Pre-validate against our current state for a friendly error;
	// the authoritative application happens via Paxos on all servers.
	s.mu.Lock()
	probe := s.state.Clone()
	s.mu.Unlock()
	if err := probe.Apply(m.Cmd); err != nil {
		return AdminResp{Err: err.Error()}
	}
	if err := s.px.Submit(m.Cmd, 60*time.Second); err != nil {
		return AdminResp{Err: err.Error()}
	}
	return AdminResp{OK: true}
}

// Crash stops the server: data path, Paxos, and heartbeats all go
// silent. Disk contents are retained.
func (s *Server) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
	s.jr.Record("petal", "replica", "crash", 0, 0, "")
	s.px.Crash()
	s.det.Crash()
}

// Restart revives a crashed server. Its partners push it the writes it
// missed and then it proposes itself alive; clients route reads back to
// it only after that point.
func (s *Server) Restart() {
	s.mu.Lock()
	s.crashed = false
	s.mu.Unlock()
	s.jr.Record("petal", "replica", "restart", 0, 0, "resync from partners")
	s.px.Recover()
	s.det.Recover()
	go s.rejoin()
}

// repairTimeout bounds rejoin's wait for one partner's repair: the
// partner answers once it has pushed every chunk the server missed.
const repairTimeout = 60 * time.Second

// rejoin asks every partner to repair this server, one partner at a
// time, then proposes aliveness.
func (s *Server) rejoin() {
	s.rejoinMu.Lock()
	defer s.rejoinMu.Unlock()
	for _, p := range s.det.Members() {
		if p == s.name || s.isDown() {
			continue
		}
		_, _ = s.ep.Call(addrOf(s.addrs, p), RepairReq{For: s.name}, repairTimeout)
	}
	_ = s.px.Submit(CmdSetAlive{Server: s.name, Alive: true}, 60*time.Second)
}

// DebugReadChunk reads length bytes at off within a chunk directly
// from this server's local store, bypassing routing — a diagnostic
// aid for replica-divergence investigations.
func (s *Server) DebugReadChunk(v VDiskID, chunk int64, off, length int) ([]byte, bool) {
	s.mu.Lock()
	base, ceiling, _, err := s.state.resolve(v)
	s.mu.Unlock()
	if err != nil {
		return nil, false
	}
	data := make([]byte, length)
	ok, err := s.st.readChunk(base, chunk, ceiling, off, data)
	if err != nil {
		return nil, false
	}
	return data, ok
}

// Close shuts the server down permanently.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.aeCancel()
	s.det.Stop()
	s.px.Close()
	s.ep.Close()
	for _, nv := range s.nvs {
		if nv != nil {
			go nv.Close() // drains asynchronously; the disks are dead anyway
		}
	}
}
