package fs

import (
	"fmt"
	"testing"
)

// readRPCs is the machine's total Petal read round trips.
func readRPCs(f *FS) int64 { return f.PetalStats().ReadVRPCs }

// TestReadDirPlusMatchesStatScan: ReadDirPlus returns exactly what
// ReadDir + a Stat per entry would, index-aligned.
func TestReadDirPlusMatchesStatScan(t *testing.T) {
	tw := newTestWorld(t)
	ws1 := tw.mount(t, "ws1", nil)
	if err := ws1.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		writeFile(t, ws1, fmt.Sprintf("/d/f%02d", i), patternData(100*(i+1), byte(i)))
	}
	if err := ws1.Mkdir("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := ws1.Sync(); err != nil {
		t.Fatal(err)
	}

	ws2 := tw.mount(t, "ws2", nil)
	ents, infos, err := ws2.ReadDirPlus("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 13 || len(infos) != len(ents) {
		t.Fatalf("ReadDirPlus: %d entries, %d infos; want 13 of each", len(ents), len(infos))
	}
	for i, ent := range ents {
		want, err := ws2.Stat("/d/" + ent.Name)
		if err != nil {
			t.Fatalf("stat %s: %v", ent.Name, err)
		}
		if infos[i] != want {
			t.Fatalf("%s: ReadDirPlus info %+v != Stat %+v", ent.Name, infos[i], want)
		}
	}
}

// TestReadDirPlusBatchesColdReads is the fs-level half of the RPC
// acceptance criterion: a cold ReadDir+Stat-per-entry scan pays about
// one Petal read per inode sector, while ReadDirPlus fetches the
// directory and every inode with scatter-gather reads — at least 50%
// fewer read round trips.
func TestReadDirPlusBatchesColdReads(t *testing.T) {
	tw := newTestWorld(t)
	ws1 := tw.mount(t, "ws1", nil)
	const files = 40
	if err := ws1.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < files; i++ {
		writeFile(t, ws1, fmt.Sprintf("/d/f%02d", i), patternData(256, byte(i)))
	}
	if err := ws1.Sync(); err != nil {
		t.Fatal(err)
	}

	// Baseline: a cold machine lists and stats entry by entry.
	cold1 := tw.mount(t, "cold1", nil)
	base0 := readRPCs(cold1)
	ents, err := cold1.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != files {
		t.Fatalf("ReadDir: %d entries, want %d", len(ents), files)
	}
	for _, ent := range ents {
		if _, err := cold1.Stat("/d/" + ent.Name); err != nil {
			t.Fatal(err)
		}
	}
	baseline := readRPCs(cold1) - base0

	// Batched: another cold machine uses ReadDirPlus.
	cold2 := tw.mount(t, "cold2", nil)
	b0 := readRPCs(cold2)
	ents2, infos, err := cold2.ReadDirPlus("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents2) != files || len(infos) != files {
		t.Fatalf("ReadDirPlus: %d entries, %d infos; want %d", len(ents2), len(infos), files)
	}
	batched := readRPCs(cold2) - b0

	if batched*2 > baseline {
		t.Fatalf("ReadDirPlus used %d read RPCs vs baseline %d; want <= 50%%", batched, baseline)
	}
	if batched >= files {
		t.Fatalf("ReadDirPlus used %d read RPCs for %d inode sectors: the sectors were not fetched together", batched, files)
	}
}

// TestReadDirColdUsesBatchFetch: the plain ReadDir path also batches
// its directory-sector misses into one scatter-gather read: a cold
// listing sends fewer read RPCs than the directory has sectors.
func TestReadDirColdUsesBatchFetch(t *testing.T) {
	tw := newTestWorld(t)
	ws1 := tw.mount(t, "ws1", nil)
	if err := ws1.Mkdir("/big"); err != nil {
		t.Fatal(err)
	}
	// Enough entries to spread the directory over several sectors.
	for i := 0; i < 60; i++ {
		if err := ws1.Create(fmt.Sprintf("/big/file-with-a-longish-name-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws1.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := ws1.Stat("/big")
	if err != nil {
		t.Fatal(err)
	}
	sectors := info.Size / SectorSize
	ws2 := tw.mount(t, "ws2", nil)
	if _, err := ws2.Stat("/big"); err != nil { // the path, so only the listing is counted
		t.Fatal(err)
	}
	before := readRPCs(ws2)
	ents, err := ws2.ReadDir("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 60 {
		t.Fatalf("got %d entries, want 60", len(ents))
	}
	rpcs := readRPCs(ws2) - before
	t.Logf("cold ReadDir of a directory of %d sectors: %d read RPCs", sectors, rpcs)
	if rpcs >= sectors {
		t.Fatalf("cold ReadDir of a directory of %d sectors sent %d read RPCs: its sectors were not fetched together", sectors, rpcs)
	}
}

func patternData(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*13)
	}
	return b
}
