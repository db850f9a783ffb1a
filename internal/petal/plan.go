package petal

import "slices"

// The planner decides what one round of a data call puts on the wire: it
// cuts the call's extents into pieces, routes every piece to a replica
// and batches the pieces per server into requests. It works from its
// inputs alone — no locks, clocks, network or counters — so a table test
// pins the requests for each shape of call. xfer (client.go) sends what
// it plans, settles the replies and plans again for what was not served.

// page is where a piece may be cut: the file system's block, so no block
// is ever fetched or stored in two parts.
const page = 4096

// Per-request caps: bound one RPC's simulated transfer time (network
// ~17 MB/s, disks ~6 MB/s) well under its timeout and keep message
// sizes sane.
const (
	batchMaxBytes   = 1 << 20
	batchMaxExtents = 256
)

// piece is one chunk-local span of a data call bound to its share of
// the caller's buffer: the destination of a read, the source of a
// write.
type piece struct {
	chunk int64
	off   int
	buf   []byte
	// tail marks the second part of what is cut in parts — one replica's
	// share of a lone read's span, or a write's second half: routed
	// wherever the piece before it goes when that piece is of its chunk,
	// and sent in a request of its own right behind that piece's.
	tail bool
	// tried is the replicas the piece has been sent to under the view it
	// is routed with: bit 0 the chunk's primary, bit 1 its backup. Zero
	// until it is first routed under that view.
	tried uint8
	// primary names the chunk's primary when the piece was routed by load
	// between two live replicas: the bytes it is served count towards the
	// balance. Empty otherwise.
	primary string
}

// planIn is what the planner decides from.
type planIn struct {
	view  *GlobalState // the routing view; nil when there is none, and nothing is routed
	v     VDiskID
	write bool
	// lone marks a read made while no other read of the client is in
	// flight, and not through an Overlapped view.
	lone bool
	// balance spreads reads over both live replicas of a chunk.
	balance bool
	// load is the read bytes outstanding per server, before this plan's.
	load loads
	// rr breaks ties between equally loaded replicas: each tie advances
	// it, and an odd count picks the backup.
	rr uint64
}

// loads reads the bytes of a client's reads outstanding at a server.
type loads interface{ outstanding(srv string) int64 }

// batch is what one round sends one server: the pieces of its request
// and the tails, which leave in a second request right behind the first.
// A read charges its bytes to srv until its calls return.
type batch struct {
	srv       string
	ps, tails []piece
	bytes     int
	// req and tail are the requests, built by xfer.
	req, tail any
}

// plan is a round's plan, and the scratch a call's rounds reuse.
type plan struct {
	batches []batch // in the order their first piece was routed
	none    []piece // no replica left to try under the view
	rr      uint64  // the tie-break after this round
	// parted reports that the round made parts: a lone read, or a write
	// of two pages or more to a server.
	parted bool
	cut    []piece
}

// build plans one round. On the call's first round exts are its extents,
// cut here into pieces, and each write batch is halved; on later rounds
// ps are the pieces not yet served, as they were cut.
// A piece not yet tried under in.view goes to its first preference: for
// a read of a chunk whose two replicas are alive, with balancing on, the
// one with fewer read bytes outstanding, this plan's own included, ties
// alternating; otherwise the primary, unless only the backup is alive. A
// tail goes where the piece before it went. A piece already tried goes to
// the replica it has not tried, or, with none left, to none. Pieces bound
// for one server share requests up to the caps, tails in a request of
// their own behind the rest, unless the batch is all tails. The pieces
// are copied into pl, so the storage ps came from is free once it
// returns.
func (pl *plan) build(in *planIn, exts []Extent, ps []piece) {
	pl.parted = false
	first := exts != nil
	if first {
		pl.cut, pl.parted = in.cutAll(pl.cut[:0], exts)
		ps = pl.cut
	}
	pl.batches, pl.none, pl.rr = pl.batches[:0], pl.none[:0], in.rr
	srv := ""
	for i := range ps {
		p := &ps[i]
		if p.tried == 0 && p.tail && i > 0 && ps[i-1].chunk == p.chunk && !ps[i-1].tail {
			p.tried, p.primary = ps[i-1].tried, ps[i-1].primary // and srv stays where that piece went
		} else {
			srv = pl.pick(in, p)
		}
		if srv == "" {
			pl.none = append(pl.none, *p)
			continue
		}
		b := pl.batchFor(srv, len(p.buf))
		if p.tail {
			b.tails = append(b.tails, *p)
		} else {
			b.ps = append(b.ps, *p)
		}
		b.bytes += len(p.buf)
	}
	for i := range pl.batches {
		b := &pl.batches[i]
		if first && in.write && b.halve() {
			pl.parted = true
		}
		if len(b.ps) == 0 {
			b.ps, b.tails = b.tails, b.ps
		}
	}
}

// halve cuts a write batch of two pages or more in two parts, at the page
// nearest past the middle of its bytes: the pieces after the cut are its
// tails, and the piece across it is cut in two. The primary applies and
// forwards the first part while the second is still arriving, and a
// batch of many pieces gains one piece, not one a piece. It reports
// whether it cut.
func (b *batch) halve() bool {
	if b.bytes < 2*page {
		return false
	}
	n, half := 0, b.bytes/2
	for j, p := range b.ps {
		if n+len(p.buf) <= half {
			n += len(p.buf)
			continue
		}
		k := min((p.off+half-n+page-1)&^(page-1)-p.off, len(p.buf)) // p's bytes in the first part
		rest := b.ps[j+1:]
		switch {
		case k == 0:
			rest = b.ps[j:]
		case k < len(p.buf):
			t := p
			t.off, t.buf, t.tail = p.off+k, p.buf[k:], true
			b.tails = append(b.tails, t)
			b.ps[j].buf = p.buf[:k]
		}
		for _, q := range rest {
			q.tail = true
			b.tails = append(b.tails, q)
		}
		b.ps = b.ps[:len(b.ps)-len(rest)]
		return len(b.tails) > 0
	}
	return false
}

// pick chooses the replica p goes to next and marks it tried there.
func (pl *plan) pick(in *planIn, p *piece) string {
	if in.view == nil {
		return ""
	}
	var rs [2]string
	rs[0], rs[1] = in.view.Replicas(in.v, p.chunk)
	first := 0
	switch {
	case p.tried == 0 && in.balanced(rs[0], rs[1]):
		p.primary = rs[0]
		o1, o2 := pl.outstanding(in, rs[0]), pl.outstanding(in, rs[1])
		if o1 == o2 {
			pl.rr++
		}
		if o2 < o1 || o1 == o2 && pl.rr%2 == 1 {
			first = 1
		}
	case !in.view.Alive[rs[0]] && in.view.Alive[rs[1]]:
		first = 1
	}
	for _, i := range [...]int{first, 1 - first} {
		if rs[i] != "" && p.tried&(1<<i) == 0 {
			p.tried |= 1 << i
			return rs[i]
		}
	}
	return ""
}

// outstanding is srv's read bytes outstanding with this plan's batches.
func (pl *plan) outstanding(in *planIn, srv string) int64 {
	n := in.load.outstanding(srv)
	for _, b := range pl.batches {
		if b.srv == srv {
			n += int64(b.bytes)
		}
	}
	return n
}

// batchFor returns the batch a piece of n bytes joins at srv: srv's
// newest, unless it is full.
func (pl *plan) batchFor(srv string, n int) *batch {
	for i := len(pl.batches) - 1; i >= 0; i-- {
		if b := &pl.batches[i]; b.srv == srv {
			if b.bytes+n <= batchMaxBytes && len(b.ps)+len(b.tails) < batchMaxExtents {
				return b
			}
			break
		}
	}
	pl.batches = slices.Grow(pl.batches, 1)[:len(pl.batches)+1]
	b := &pl.batches[len(pl.batches)-1]
	*b = batch{srv: srv, ps: b.ps[:0], tails: b.tails[:0]} // keeps the storage of an earlier round's
	return b
}

// balanced reports whether a read of a chunk whose replicas are p1 and p2
// goes to the less loaded one.
func (in *planIn) balanced(p1, p2 string) bool {
	return in.balance && !in.write && in.view.Alive[p1] && in.view.Alive[p2]
}

// shared reports whether a read's chunk span of n bytes is shared
// between the chunk's two replicas: half a chunk or more, balanced.
func (in *planIn) shared(chunk int64, n int) bool {
	return in.view != nil && n >= ChunkSize/2 && in.balanced(in.view.Replicas(in.v, chunk))
}

// cutAll appends to dst the pieces of exts: split at chunk boundaries,
// and each chunk span cut at pages into shares, one per replica that
// serves it, and each share into parts, the requests it leaves in. A
// read's shared span has two shares; each is cut in two parts when the
// read is lone and shares this one span alone, whatever small pieces
// ride beside it: the replica's reply to the first part is on the wire
// while its disk reads the second. A write is cut in parts per server,
// once it is routed (batch.halve). It reports whether anything was cut
// in parts.
func (in *planIn) cutAll(dst []piece, exts []Extent) ([]piece, bool) {
	shared := 0
	if in.lone {
		eachSpan(exts, func(chunk int64, _ int, buf []byte) {
			if in.shared(chunk, len(buf)) {
				shared++
			}
		})
	}
	parted := false
	eachSpan(exts, func(chunk int64, at int, buf []byte) {
		shares, k := 1, 1
		if in.shared(chunk, len(buf)) {
			shares = 2
			if shared == 1 {
				k = 2
			}
		}
		parted = parted || k == 2
		for i, lo := 1, 0; i <= shares*k; i++ {
			hi := len(buf)
			if i < shares*k {
				hi = (at+len(buf)*i/(shares*k)+page-1)&^(page-1) - at
			}
			dst = append(dst, piece{chunk: chunk, off: at + lo, buf: buf[lo:hi], tail: k == 2 && i%2 == 0})
			lo = hi
		}
	})
	return dst, parted
}

// eachSpan calls f with every chunk span of exts: its chunk, its offset
// in the chunk and its bytes.
func eachSpan(exts []Extent, f func(chunk int64, at int, buf []byte)) {
	for _, e := range exts {
		for off, buf := e.Off, e.Data; len(buf) > 0; {
			at := int(off % ChunkSize)
			n := min(ChunkSize-at, len(buf))
			f(off/ChunkSize, at, buf[:n])
			off += int64(n)
			buf = buf[n:]
		}
	}
}
