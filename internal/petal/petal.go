// Package petal implements the Petal distributed virtual disk service
// (Lee & Thekkath, ASPLOS 1996) that Frangipani is layered on. A
// Petal virtual disk provides a sparse 2^64-byte address space;
// physical space is committed in 64 KB chunks on first write and can
// be decommitted. Data is replicated on two servers chosen by a fixed
// placement function; reads and writes fail over when a replica is
// down, and the partners of a recovering server push it the writes it
// missed before it rejoins. Copy-on-write epochs provide the
// crash-consistent snapshots that Frangipani's backup mechanism
// (paper §8) relies on.
//
// The rarely-changing global state — server liveness and the virtual
// disk directory — is replicated across the Petal servers with Paxos,
// mirroring the paper's note that the lock service "reuses an
// implementation of Paxos originally written for Petal".
package petal

import (
	"errors"
	"fmt"

	"frangipani/internal/obs"
	"frangipani/internal/rpc"
)

// ChunkSize is Petal's commit/decommit granularity: "To keep its
// internal data structures small, Petal commits and decommits space
// in fairly large chunks, currently 64 KB" (§3).
const ChunkSize = 64 << 10

// VDiskID names a virtual disk. Snapshots are virtual disks too.
type VDiskID string

// Errors returned by the Petal client and servers.
var (
	ErrNoSuchVDisk   = errors.New("petal: no such virtual disk")
	ErrVDiskExists   = errors.New("petal: virtual disk already exists")
	ErrReadOnly      = errors.New("petal: virtual disk is read-only (snapshot)")
	ErrUnavailable   = errors.New("petal: no replica reachable")
	ErrLeaseExpired  = errors.New("petal: write rejected, lease expired")
	ErrBounds        = errors.New("petal: I/O out of bounds")
	ErrNotReplicated = errors.New("petal: replica count unsatisfiable")
	ErrStaleEpoch    = errors.New("petal: write targets a pre-snapshot epoch")
)

// chunkKey identifies one replicated 64 KB chunk at one COW epoch.
type chunkKey struct {
	VDisk VDiskID
	Chunk int64
	Epoch int64
}

func (k chunkKey) String() string {
	return fmt.Sprintf("%s/%d@%d", k.VDisk, k.Chunk, k.Epoch)
}

// fnv64 hashes a vdisk/chunk pair for placement.
func fnv64(v VDiskID, chunk int64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= prime
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(chunk >> (8 * i) & 0xff)
		h *= prime
	}
	return h
}

// Wire messages for the Petal data and control path.
type (
	// ReadVExtent asks for Len bytes at Off within one chunk — one
	// piece of a read.
	ReadVExtent struct {
		Chunk int64
		Off   int
		Len   int
	}
	// ReadVExtentResult is one extent's outcome: data, a hole (OK with
	// nil Data), or a replica-local error the client fails over
	// per-extent.
	ReadVExtentResult struct {
		OK   bool
		Err  string
		Data []byte
	}
	// ReadVReq is the one Petal read message: one or many chunk-local
	// extents. The server resolves the vdisk once and serves every
	// extent from its local store, so one round trip carries a whole
	// run of cache misses or a batch of inode blocks. Ctx names the
	// operation the read is made for (zero for none): the server joins
	// its trace and accounts the request to its principal.
	ReadVReq struct {
		Ctx     obs.Ctx
		VDisk   VDiskID
		Extents []ReadVExtent
	}
	// ReadVResp carries per-extent results, index-aligned with the
	// request. Batch-level Err is only set when the whole request could
	// not be served (e.g. unknown vdisk); extent-local failures (a CRC
	// error on one chunk) come back in Results so the other extents'
	// data is not thrown away.
	// Per-extent Data aliases a pooled buffer (wb): the one the server
	// read the extents into or, when decoded from a TCP frame, the
	// receive buffer. The consumer releases it with rpc.Release after
	// copying the data out. The codec carries exported fields only.
	ReadVResp struct {
		OK      bool
		Err     string
		Results []ReadVExtentResult
		wb      *rpc.RecvBuf
	}
	// WriteVExtent is one piece of a write: Data lands at Off within
	// Chunk.
	WriteVExtent struct {
		Chunk int64
		Off   int
		Data  []byte
	}
	// WriteVReq is the one Petal write message: one or many
	// chunk-local extents, applied under a single lease/epoch check, so
	// one cache-sync round trip carries many coalesced dirty runs.
	// Forwarded marks replica-to-replica propagation. ExpireAt
	// optionally carries the writer's lease expiration (simulated ns);
	// servers configured with a write guard reject requests whose
	// lease has expired — the hazard fix proposed at the end of paper
	// §6. Ctx is as in ReadVReq; a forward carries the context of the
	// write it replicates.
	WriteVReq struct {
		Ctx       obs.Ctx
		VDisk     VDiskID
		Extents   []WriteVExtent
		Forwarded bool
		ExpireAt  int64
		// Epoch, when non-zero, is the vdisk epoch the writer intends
		// to write at. A server lagging behind waits for its Paxos
		// apply loop to catch up; a writer lagging behind a snapshot
		// is told to refresh. Zero bypasses the check (server-local
		// resolution), used only by in-process tests.
		Epoch int64

		// wb is the pooled receive buffer the extents' Data aliases
		// when the request was decoded from a TCP frame.
		wb *rpc.RecvBuf
	}
	// WriteVResp acknowledges a write. All extents applied (OK) or the
	// batch failed at the first bad extent (Err); a client that
	// retries need not sort out partial progress — replays are
	// idempotent at the store.
	WriteVResp struct {
		OK  bool
		Err string
	}
	// DecommitReq frees physical space for a chunk range of a vdisk.
	DecommitReq struct {
		Ctx        obs.Ctx
		VDisk      VDiskID
		FirstChunk int64
		LastChunk  int64
	}
	// AdminReq submits a global-state command (create/snapshot/...)
	// through any Petal server.
	AdminReq struct{ Cmd Command }
	// AdminResp reports the outcome.
	AdminResp struct {
		OK  bool
		Err string
	}
	// RepairReq asks a partner to push the named server, restarting,
	// every chunk it missed; the partner answers when it is done.
	RepairReq struct{ For string }
	// PushChunkReq installs a whole raw chunk on the receiver: the
	// repair of a replica that missed forwarded writes.
	PushChunkReq struct {
		Key  chunkKey
		Data []byte
	}
	// ListChunksReq asks a server which chunks of a vdisk it stores
	// as primary (restore tooling enumerates committed space with it).
	ListChunksReq struct{ VDisk VDiskID }
	// ListChunksResp lists committed chunk indexes at the current
	// epoch view.
	ListChunksResp struct{ Chunks []int64 }
)

// WireSize implementations so the simulated network charges the data
// path realistically.

// WireSize reports the total payload size of a read response.
func (r ReadVResp) WireSize() int {
	n := 0
	for _, e := range r.Results {
		n += len(e.Data)
	}
	return n
}

// WireSize reports the total payload size of a write request.
func (w WriteVReq) WireSize() int {
	n := 0
	for _, e := range w.Extents {
		n += len(e.Data)
	}
	return n
}

// WireSize reports the payload size of a chunk push.
func (p PushChunkReq) WireSize() int { return len(p.Data) }
