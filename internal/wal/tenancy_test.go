package wal

import (
	"bytes"
	"testing"
)

// TestScanKeepsOneTenancy: a region holds an old tenancy's log, wrapped
// several times, and a new tenancy's first few blocks written over its
// start. The new tenant's blocks start at n = 1 and the old tenant's
// run far higher, yet Scan returns the new tenancy's records and nothing
// else, and ScanTenancy returns each tenancy's own — for a tenancy that
// wrote nothing there, nothing.
func TestScanKeepsOneTenancy(t *testing.T) {
	const size = 8 << 10 // 16 blocks: the old log laps it many times
	region := newMemRegion(size)
	old := NewTenancy(region, size, 3)
	old.SetReclaim(func(through int64) {
		_ = old.Flush()
		old.Release(through)
	})
	data := bytes.Repeat([]byte{0x0D}, 100)
	for i := 0; i < 400; i++ {
		if _, err := old.Append([]Update{{Addr: int64(i) * 512, Data: data, Ver: uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Flush(); err != nil {
		t.Fatal(err)
	}
	const newAddr = 1 << 30
	fresh := NewTenancy(region, size, 5)
	for i := 0; i < 3; i++ {
		if _, err := fresh.Append([]Update{upd(newAddr+int64(i)*512, 8, 1, 0xA0+byte(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fresh.Flush(); err != nil {
		t.Fatal(err)
	}

	only := func(recs []RecoveredRecord, what string) {
		t.Helper()
		if len(recs) != 3 {
			t.Fatalf("%s: %d records, want the new tenancy's 3", what, len(recs))
		}
		for i, r := range recs {
			u := r.Updates
			if r.Seq != int64(i+1) || len(u) != 1 || u[0].Addr != newAddr+int64(i)*512 || u[0].Data[0] != 0xA0+byte(i) {
				t.Fatalf("%s: record %d is seq %d %+v, not the new tenancy's", what, i, r.Seq, u)
			}
		}
	}
	recs, err := Scan(region, size)
	if err != nil {
		t.Fatal(err)
	}
	only(recs, "Scan")
	if recs, err = ScanTenancy(region, size, 5); err != nil {
		t.Fatal(err)
	}
	only(recs, "ScanTenancy(5)")
	if recs, err = ScanTenancy(region, size, 4); err != nil || len(recs) != 0 {
		t.Fatalf("ScanTenancy of a tenancy that wrote nothing: %d records, err=%v", len(recs), err)
	}
	if recs, err = ScanTenancy(region, size, 3); err != nil || len(recs) == 0 {
		t.Fatalf("ScanTenancy(3): %d records, err=%v; the old tenancy's blocks the new one did not overwrite hold some", len(recs), err)
	}
	for _, r := range recs {
		if r.Updates[0].Addr >= newAddr {
			t.Fatalf("ScanTenancy(3) returned the new tenancy's record %d", r.Seq)
		}
	}
}
