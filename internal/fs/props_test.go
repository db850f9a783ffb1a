package fs

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"frangipani/internal/cache"
)

// TestInodeCodecProperty round-trips random inodes through the
// on-disk sector format.
func TestInodeCodecProperty(t *testing.T) {
	f := func(typ uint8, nlink uint16, size, mtime, large int64, small [NumDirect]int64, sym string) bool {
		in := Inode{
			Type:  FileType(typ%3 + 1),
			Nlink: nlink,
			Size:  abs64(size),
			Mtime: abs64(mtime),
			Ctime: abs64(mtime) + 1,
			Atime: abs64(mtime) + 2,
			Large: abs64(large) % (1 << 40),
		}
		for i := range in.Small {
			in.Small[i] = abs64(small[i]) % (1 << 40)
		}
		if len(sym) > MaxSymlink {
			sym = sym[:MaxSymlink]
		}
		if in.Type == TypeSymlink {
			in.Symlink = sym
		}
		sec := make([]byte, SectorSize)
		encodeInode(in, sec)
		got, err := decodeInode(sec)
		if err != nil {
			return false
		}
		return got.Type == in.Type && got.Nlink == in.Nlink && got.Size == in.Size &&
			got.Mtime == in.Mtime && got.Large == in.Large &&
			got.Small == in.Small && got.Symlink == in.Symlink
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == -v { // MinInt64
			return 0
		}
		return -v
	}
	return v
}

// TestDirSectorProperty: random add/remove sequences keep the sector
// parseable and searchable.
func TestDirSectorProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		sec := make([]byte, SectorSize)
		present := map[string]int64{}
		for _, op := range ops {
			name := fmt.Sprintf("n%d", op%37)
			if op%2 == 0 {
				if _, ok := present[name]; ok {
					continue
				}
				if dirSectorSpace(sec) < entryLen(name) {
					continue
				}
				dirSectorAppend(sec, DirEntry{Name: name, Inum: int64(op), Type: TypeFile})
				present[name] = int64(op)
			} else {
				if _, ok := present[name]; !ok {
					continue
				}
				_, pos, found := dirSectorFind(sec, name)
				if !found {
					return false
				}
				dirSectorRemove(sec, pos)
				delete(present, name)
			}
			// Invariants after every step.
			ents, err := dirSectorEntries(sec)
			if err != nil {
				return false
			}
			if len(ents) != len(present) {
				return false
			}
			for _, e := range ents {
				if present[e.Name] != e.Inum {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutBitMappingProperty: bitFor and objForBit are inverse over
// every class, and regions never overlap.
func TestLayoutBitMappingProperty(t *testing.T) {
	lay := DefaultLayout()
	f := func(rawIdx int64, classPick uint8) bool {
		classes := []allocClass{classInode, classMetaSmall, classDataSmall, classLarge}
		c := classes[int(classPick)%len(classes)]
		lo, hi := lay.classRange(c)
		span := hi - lo
		if span <= 0 {
			return false
		}
		bit := lo + abs64(rawIdx)%span
		gotClass, gotIdx := lay.objForBit(bit)
		if gotClass != c {
			return false
		}
		// Map back: the small classes share an index space.
		back := lay.bitFor(gotClass, gotIdx)
		return back == bit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Address regions are disjoint and ordered.
	if !(lay.ParamsBase < lay.LogBase && lay.LogBase < lay.BitmapBase &&
		lay.BitmapBase < lay.InodeBase && lay.InodeBase < lay.SmallBase &&
		lay.SmallBase < lay.LargeBase) {
		t.Fatal("layout regions out of order")
	}
	// Lock id spaces are distinct.
	if InodeLock(5) == SegLock(5) || SegLock(5) == LockBarrier {
		t.Fatal("lock id namespaces collide")
	}
}

// TestBlockForProperty: every offset maps into exactly one block with
// consistent in-block offsets.
func TestBlockForProperty(t *testing.T) {
	f := func(off int64) bool {
		o := abs64(off) % (DirectBytes * 4)
		slot, inBlock := blockFor(o)
		if o < DirectBytes {
			return slot == int(o/BlockSize) && inBlock == o%BlockSize
		}
		return slot == -1 && inBlock == o-DirectBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// span and mergeSpans are how a transaction coalesced one sector's
// changed ranges while it kept a list per sector: the reference for what
// addSpan and mergeRanges log.
type span struct{ lo, hi int }

func mergeSpans(in []span) []span {
	if len(in) <= 1 {
		return in
	}
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && in[j].lo < in[j-1].lo; j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
	out := in[:1]
	for _, s := range in[1:] {
		last := &out[len(out)-1]
		if s.lo <= last.hi+8 {
			if s.hi > last.hi {
				last.hi = s.hi
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// TestSpanMergeProperty: what a transaction logs of the sectors it
// touched is sorted, disjoint, covers every range added, and is exactly
// what the per-sector lists of the reference merge to — whether the
// ranges fit the transaction's own room or spill past it.
func TestSpanMergeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		entries := make([]*cache.Entry, 6)
		for i := range entries {
			entries[i] = new(cache.Entry)
		}
		tx := new(txn)
		tx.reset()
		ref := make(map[*cache.Entry][]span)
		var order []*cache.Entry
		for i := 0; i+2 < len(raw); i += 3 {
			e := entries[int(raw[i])%len(entries)]
			lo := int(raw[i+1] % 400)
			hi := lo + 1 + int(raw[i+2]%100)
			tx.addSpan(e, lo, hi)
			if _, ok := ref[e]; !ok {
				order = append(order, e)
			}
			ref[e] = append(ref[e], span{lo, hi})
		}
		if !slices.Equal(tx.sectors, order) {
			return false
		}
		var want []logRange
		for i, e := range order {
			orig := slices.Clone(ref[e])
			merged := mergeSpans(ref[e])
			for j, s := range merged {
				if j > 0 && s.lo <= merged[j-1].hi {
					return false // must be disjoint and ordered
				}
				want = append(want, logRange{i, s.lo, s.hi})
			}
			for _, s := range orig {
				if !slices.ContainsFunc(merged, func(o span) bool { return s.lo >= o.lo && s.hi <= o.hi }) {
					return false
				}
			}
		}
		return slices.Equal(mergeRanges(tx.ranges), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParamsCodec pins the params sector format.
func TestParamsCodec(t *testing.T) {
	b := encodeParams(params{Magic: paramsMagic, Version: 3, Root: 7})
	p, err := decodeParams(b)
	if err != nil || p.Version != 3 || p.Root != 7 {
		t.Fatalf("roundtrip: %+v err=%v", p, err)
	}
	var junk [SectorSize]byte
	if _, err := decodeParams(junk[:]); err == nil {
		t.Fatal("junk accepted as params")
	}
}
