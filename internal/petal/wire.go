package petal

import "frangipani/internal/rpc"

// Register every Petal wire type (and the Paxos command payloads the
// directory protocol submits) with the TCP carrier's codec, so the
// full Petal stack can run over real sockets as well as the
// simulated network.
func init() {
	for _, v := range []any{
		ReadVExtent{}, ReadVExtentResult{}, ReadVReq{}, ReadVResp{},
		WriteVExtent{}, WriteVReq{}, WriteVResp{},
		DecommitReq{},
		AdminReq{}, AdminResp{},
		StateReq{}, StateResp{},
		RepairReq{}, PushChunkReq{},
		ListChunksReq{}, ListChunksResp{},
		CmdCreateVDisk{}, CmdDeleteVDisk{}, CmdSnapshot{}, CmdSetAlive{},
	} {
		rpc.RegisterType(v)
	}
}
