package petal

import "frangipani/internal/rpc"

// Register every Petal wire type (and the Paxos command payloads the
// directory protocol submits) with the wire codec, so the full Petal
// stack can run over real sockets as well as the simulated network.
func init() {
	rpc.Register(
		ReadVExtent{}, ReadVExtentResult{}, ReadVReq{}, ReadVResp{},
		WriteVExtent{}, WriteVReq{}, WriteVResp{},
		DecommitReq{},
		AdminReq{}, AdminResp{},
		RepairReq{}, PushChunkReq{},
		ListChunksReq{}, ListChunksResp{},
		CmdCreateVDisk{}, CmdDeleteVDisk{}, CmdSnapshot{}, GlobalState{},
	)
}

// HoldWire implements rpc.WireHolder: the per-extent Data fields alias
// rb.
func (r *ReadVResp) HoldWire(rb *rpc.RecvBuf) { r.wb = rb }

// ReleaseWire implements rpc.WireReleaser: it returns the pooled
// buffer the per-extent Data fields alias. Idempotent.
func (r ReadVResp) ReleaseWire() { r.wb.Release() }

// HoldWire implements rpc.WireHolder: the per-extent Data fields alias
// rb.
func (w *WriteVReq) HoldWire(rb *rpc.RecvBuf) { w.wb = rb }

// ReleaseWire implements rpc.WireReleaser: it returns the pooled
// receive buffer the per-extent Data fields alias. Idempotent.
func (w WriteVReq) ReleaseWire() { w.wb.Release() }
