// Package bufpool is a size-classed []byte allocator shared by the
// hot data paths: the TCP carrier's frame reassembly buffers, the
// Petal client's write snapshots, the WAL's flush block assembly, and
// the file server's cache-fill scratch all draw from it, so steady
// state I/O recycles a small working set of buffers instead of
// allocating per operation.
//
// The discipline is leak-safe by construction: Put checks that a
// buffer's capacity still matches one of the pool's size classes, so
// grown or foreign slices are silently dropped to the garbage
// collector, and a caller that cannot prove a buffer is dead (e.g. a
// timed-out RPC whose payload may still be queued at the carrier)
// simply never calls Put. Forgetting to release costs an allocation,
// never correctness.
package bufpool

import "sync"

// classes are the pooled buffer capacities, chosen for the repo's
// traffic: sector/inode metadata (512 B), small control frames (4 KB),
// one Petal chunk (64 KB), a chunk and a page of slack (a file server's
// fill of a chunk's pages with the inode sector read beside them), a
// coalesced flush run (256 KB), and a size-capped scatter-gather batch
// (1 MB, plus header slack).
var classes = [...]int{512, 4 << 10, 64 << 10, (64 << 10) + (4 << 10), 256 << 10, (1 << 20) + (64 << 10)}

var pools [len(classes)]sync.Pool

func init() {
	for i := range classes {
		n := classes[i]
		pools[i].New = func() any {
			b := make([]byte, n)
			return &b
		}
	}
}

// Get returns a pointer to a buffer with len(*p) == n. Requests
// larger than the biggest class fall through to a plain allocation
// (Put will drop them).
func Get(n int) *[]byte {
	for i, c := range classes {
		if n <= c {
			p := pools[i].Get().(*[]byte)
			*p = (*p)[:n]
			return p
		}
	}
	b := make([]byte, n)
	return &b
}

// Put recycles a buffer obtained from Get. Buffers whose capacity no
// longer matches a size class (grown by append, or never pooled) are
// dropped. The caller must not touch *p after Put.
func Put(p *[]byte) {
	if p == nil {
		return
	}
	c := cap(*p)
	for i := range classes {
		if c == classes[i] {
			*p = (*p)[:c]
			pools[i].Put(p)
			return
		}
	}
}
