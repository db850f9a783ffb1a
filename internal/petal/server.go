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
	"frangipani/internal/reuse"
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
	grp  *paxos.Group
	cpu  *sim.CPU
	st   *store

	mu      sync.Mutex
	state   GlobalState
	missed  map[string]map[chunkKey]uint64 // partner -> keys it missed -> missSeq of the latest miss
	missSeq uint64

	aeCancel func()
	nvs      []*sim.NVRAM

	addrs map[string]string // DataAddr of each peer, made once

	// workers run the fan-outs of reads and writes over the disks;
	// Close ends them.
	workers Workers
	// readJobs and writeJobs are the scratches of served reads and
	// writes, for the next to take.
	readJobs  reuse.List[*readJob]
	writeJobs reuse.List[*writeJob]

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

	s.grp = paxos.NewGroup(name, peers, carrier, w.Clock,
		cfg.HeartbeatEvery, cfg.SuspectAfter, s.jr, s.applyCmd, s.rejoin)
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

// handle serves the Petal data and control protocol.
func (s *Server) handle(from string, body any) any {
	if s.grp.Down() {
		// The request will never be served; recycle any pooled
		// receive buffer its payload occupies.
		rpc.Release(body)
		return nil
	}
	s.reqC.Inc()
	// Requests sent on behalf of an operation say so in their header:
	// the work is charged to the originating client, not to the server.
	switch m := body.(type) {
	case *ReadVReq:
		return s.readV(m)
	case *WriteVReq:
		return s.writeV(m)
	case DecommitReq:
		s.acct.ServerOp(m.Ctx.Principal)
		return s.onDecommit(m)
	}
	s.acct.ServerOp(obs.UnknownPrincipal) // control traffic is nobody's operation
	switch m := body.(type) {
	case AdminReq:
		return s.onAdmin(m)
	case paxos.StateReq:
		s.mu.Lock()
		defer s.mu.Unlock()
		return m.Answer(s.state.Version, func() any { return s.state.Clone() })
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
	}
	return nil
}

func (s *Server) readV(m *ReadVReq) any {
	return s.spanned("server.readv", m.Ctx, func(*obs.Span) any { return s.onReadV(m) })
}

func (s *Server) writeV(m *WriteVReq) any {
	return s.spanned("server.writev", m.Ctx, func(sp *obs.Span) any { return s.onWriteV(sp, m) })
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
	if s.grp.Down() {
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
// from the server's readJobs and goes back when the read is served;
// serve is the bound readExtent the fan-out runs, made once per readJob
// rather than once per read, and fan is what the fan-out's workers share.
type readJob struct {
	s       *Server
	base    VDiskID
	ceiling int64
	exts    []ReadVExtent
	results []ReadVExtentResult
	serve   func(i int) error
	fan     FanOut
}

// readReplyRoom is how many extent results a read reply holds in its own
// object; a read of more extents has its list apart.
const readReplyRoom = 4

// readReply is a read's reply in one object: the ReadVResp, room for its
// results, and the RecvBuf through which its data buffer goes back to the
// pool. It is sent by pointer (&r.ReadVResp) and never reused: only its
// data buffer is, once, whoever releases it first — the client that has
// copied the data out, or the endpoint that got the reply after its call
// gave up — so a late reply stays harmless.
type readReply struct {
	ReadVResp
	room [readReplyRoom]ReadVExtentResult
	rb   rpc.RecvBuf
}

// onReadV serves a read: the vdisk resolves once, then every extent
// is read from the local store with bounded parallelism. Reads don't
// modify anything, so unlike applyExtents no conflict chaining is
// needed. Extent failures (e.g. a CRC error) are reported per extent
// so the client can fail over only the damaged pieces. The extents'
// data lies in one pooled buffer that the reply carries, and whoever
// consumes the reply gives back (rpc.Release); one that is never
// consumed leaves it to the collector.
func (s *Server) onReadV(m *ReadVReq) any {
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
		return &ReadVResp{Err: err.Error()}
	}
	r := new(readReply)
	bufp := bufpool.Get(size)
	r.rb.Hold(bufp)
	r.wb = &r.rb
	buf := *bufp
	results := slices.Grow(r.room[:0], len(m.Extents))[:len(m.Extents)]
	for i, e := range m.Extents {
		if !readable(e) {
			results[i].Err = ErrBounds.Error()
			continue
		}
		results[i].Data, buf = buf[:e.Len:e.Len], buf[e.Len:]
	}
	j, ok := s.readJobs.Take()
	if !ok {
		j = &readJob{s: s}
		j.serve = j.readExtent
	}
	j.base, j.ceiling, j.exts, j.results = base, ceiling, m.Extents, results
	_ = s.workers.Run(&j.fan, readVServePar, len(results), j.serve)
	j.base, j.ceiling, j.exts, j.results = "", 0, nil, nil
	s.readJobs.Put(j)
	r.OK, r.Results = true, results
	return &r.ReadVResp
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
		if s.w.Clock.Now() >= waitLimit || s.grp.Down() {
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

// writeJob is one onWriteV's scratch: the write's forwards to its
// partners, requests sent by pointer, and the serial units its extents
// are cut into. It comes from the server's writeJobs and goes back once
// the write is answered — unless a forward went unanswered, whose request
// may still be queued at the carrier. apply is the bound applyUnit the fan-out runs,
// made once per writeJob rather than once per write.
type writeJob struct {
	s       *Server
	base    VDiskID
	ceiling int64
	st      GlobalState
	fws     []forward
	sorted  []WriteVExtent // the extents in address order, when they came in another
	units   [][]WriteVExtent

	apply func(i int) error
	fan   FanOut
}

// release gives j back to its server's writeJobs, pointing at nothing,
// unless a forward of it went unanswered.
func (j *writeJob) release() {
	for _, fw := range j.fws {
		if fw.leaked {
			return
		}
	}
	fws := j.fws[:cap(j.fws)]
	for i := range fws {
		exts := fws[i].req.Extents
		clear(exts[:cap(exts)])
		fws[i] = forward{req: WriteVReq{Extents: exts[:0]}}
	}
	clear(j.sorted[:cap(j.sorted)])
	clear(j.units[:cap(j.units)])
	j.base, j.ceiling, j.st = "", 0, GlobalState{}
	j.fws, j.sorted, j.units = j.fws[:0], j.sorted[:0], j.units[:0]
	j.s.writeJobs.Put(j)
}

// onWriteV applies a write: one lease check and one epoch resolution
// cover every extent, then the extents are forwarded to the partner
// replicas and land on the local store while the forwards are on their
// way — Petal's primary sends to the second copy and to its local disk
// simultaneously. Forwards go grouped by partner, so a batch stays
// batched on the replica hop too; each leaves as soon as this server's
// link has carried the one before, and the answers are collected once the
// local apply is done. A local failure fails the request, though a
// forward may by then have been applied: the client's retry at the other
// replica converges the two.
func (s *Server) onWriteV(sp *obs.Span, m *WriteVReq) any {
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
	j, ok := s.writeJobs.Take()
	if !ok {
		j = &writeJob{s: s}
		j.apply = j.applyUnit
	}
	j.base, j.ceiling, j.st = base, ceiling, st
	if !m.Forwarded && !s.cfg.NoReplicate {
		j.forward(sp.Ctx(), m)
	}
	j.cut(m.Extents)
	for i := range j.fws {
		s.replicate(&j.fws[i], &j.st)
	}
	errStr = j.applyExtents()
	for i := range j.fws {
		fw := &j.fws[i]
		fw.settle()
		leaked = leaked || fw.leaked
	}
	if errStr == "" {
		s.noteMissed(j.fws, j.base, j.ceiling)
	}
	j.release()
	if errStr != "" {
		return WriteVResp{Err: errStr}
	}
	return writeVOK
}

// writeVApplyPar bounds concurrent store writes while applying one
// batch; the disk arms serialize actual media time.
const writeVApplyPar = 16

// applyExtents applies the write's units to the local store with
// bounded parallelism — the disk-level half of scatter-gather. Returns
// the first error string, or "".
func (j *writeJob) applyExtents() string {
	if err := j.s.workers.Run(&j.fan, writeVApplyPar, len(j.units), j.apply); err != nil {
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

// forward is the share of a client write one partner replicates, the
// request that carries it, and how sending it went: call is the request
// in flight, done when the partner applied it, leaked when the call got
// no answer — the request may still be queued at the carrier, so neither
// it nor the receive buffer it aliases may be recycled.
type forward struct {
	partner      string
	req          WriteVReq
	call         rpc.Pending
	sent         bool
	done, leaked bool
}

// forward groups the extents of m into j.fws by the partner that holds
// their second copy, so each partner receives one request, stamped with
// ctx, the context of the write here: the partner's span becomes a child
// of this server's. A pooled job's forwards keep their extent lists'
// room.
func (j *writeJob) forward(ctx obs.Ctx, m *WriteVReq) {
	j.fws = j.fws[:0]
	for _, e := range m.Extents {
		p1, p2 := j.st.Replicas(j.base, e.Chunk)
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
			j.fws[k].partner = partner
			j.fws[k].req = WriteVReq{Ctx: ctx, VDisk: m.VDisk, Extents: j.fws[k].req.Extents[:0], Forwarded: true, Epoch: j.ceiling}
		}
		j.fws[k].req.Extents = append(j.fws[k].req.Extents, e)
	}
}

// replicate sends one partner its share of a client write, unless the
// partner is known to be down in st; settle collects the answer.
func (s *Server) replicate(fw *forward, st *GlobalState) {
	s.mu.Lock()
	partnerAlive := st.Alive[fw.partner]
	s.mu.Unlock()
	if !partnerAlive {
		return
	}
	var err error
	fw.call, err = s.ep.Go(addrOf(s.addrs, fw.partner), &fw.req)
	fw.sent = err == nil
}

// settle waits for the answer to a forward that replicate sent.
func (fw *forward) settle() {
	if !fw.sent {
		return
	}
	resp, err := fw.call.Wait(dataTimeout)
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
		for _, e := range fw.req.Extents {
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
	if err := s.grp.Submit(m.Cmd); err != nil {
		return AdminResp{Err: err.Error()}
	}
	return AdminResp{OK: true}
}

// Crash stops the server: data path, Paxos, and heartbeats all go
// silent. Disk contents are retained.
func (s *Server) Crash() {
	s.jr.Record("petal", "replica", "crash", 0, 0, "")
	s.grp.Crash()
}

// Restart revives a crashed server. Its partners push it the writes it
// missed (rejoin) and then its group proposes it alive; clients route
// reads back to it only after that point.
func (s *Server) Restart() {
	s.jr.Record("petal", "replica", "restart", 0, 0, "resync from partners")
	s.grp.Restart()
}

// repairTimeout bounds rejoin's wait for one partner's repair: the
// partner answers once it has pushed every chunk the server missed.
const repairTimeout = 60 * time.Second

// rejoin is the group's rejoin hook: it asks every partner to repair
// this server, one partner at a time.
func (s *Server) rejoin() {
	for _, p := range s.grp.Members() {
		if p == s.name || s.grp.Down() {
			continue
		}
		_, _ = s.ep.Call(addrOf(s.addrs, p), RepairReq{For: s.name}, repairTimeout)
	}
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
	s.grp.Close()
	s.aeCancel()
	s.ep.Close()
	s.workers.Close()
	for _, nv := range s.nvs {
		if nv != nil {
			go nv.Close() // drains asynchronously; the disks are dead anyway
		}
	}
}
