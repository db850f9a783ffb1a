package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"frangipani"
	"frangipani/internal/obs"
)

// forensicsWant is the causal chain a lease-expiry recovery must leave
// in the flight recorder, in order: the dead server's lease expires,
// the lock service assigns its log to a survivor, the survivor's
// recovery demon replays it, and the lock service closes the session.
var forensicsWant = []struct {
	layer, op, kind string
}{
	{"lockservice", "lease", "expire"},
	{"lockservice", "recovery", "assign"},
	{"fs", "recover", "start"},
	{"fs", "recover", "replayed"},
	{"lockservice", "recovery", "closed"},
}

// ForensicsSmoke kills a lock holder mid-write and asserts the merged
// cross-server timeline tells the recovery story in causal order (§4,
// §7): this is the CI gate that the flight recorder actually records
// the events forensics depend on. Run by `make bench-smoke`.
func (o Options) ForensicsSmoke() (*Table, error) {
	t := &Table{
		ID:     "Forensics smoke",
		Title:  "Flight-recorder timeline of an induced lease-expiry recovery",
		Header: []string{"Event", "t (sim ms)", "server", "detail"},
		Notes:  "Asserted order: lease expire -> recovery assign -> replay start -> records replayed -> session closed.",
	}
	// The 30 s lease must expire in real time: compress the clock so
	// the wait is ~0.3 s regardless of the bench-wide compression.
	c, err := o.newCluster(true, func(cc *frangipani.ClusterConfig) { cc.Compression = 100 })
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// ws1 logs synchronously but never writes metadata back: every
	// update it makes lives only in its WAL, so its crash forces a
	// real replay on the survivor.
	fss, err := mountN(c, 2, func(fc *frangipani.Config) {
		fc.SyncLog = true
		fc.SyncEvery = time.Hour
	})
	if err != nil {
		return nil, err
	}
	ws1, ws2 := fss[0], fss[1]
	fail := func(err error) error { return failDump("forensics-smoke", err, c.Forensics(""), nil) }
	const files = 5
	for i := 0; i < files; i++ {
		if err := ws1.Create(fmt.Sprintf("/doc%d", i)); err != nil {
			return nil, err
		}
	}
	ws1.Crash()
	// ws2's ReadDir needs ws1's locks; it unblocks only after lease
	// expiry + log replay hand them over.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		ents, err := ws2.ReadDir("/")
		if err == nil && len(ents) == files {
			break
		}
		if time.Now().After(deadline) {
			return nil, fail(fmt.Errorf("recovery did not complete: ws2 sees %d/%d files (err %v)", len(ents), files, err))
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := c.Obs().Counter("fs.recovery.count#" + ws2.Machine()).Value(); got < 1 {
		return nil, fail(fmt.Errorf("ws2 replayed no logs (Recoveries=%d)", got))
	}
	// Assert the merged timeline contains the recovery chain in order.
	events := obs.MergeTimeline(c.Obs().Journals(), obs.Filter{})
	idx := 0
	for _, want := range forensicsWant {
		found := -1
		for i := idx; i < len(events); i++ {
			e := events[i]
			if e.Layer == want.layer && e.Op == want.op && e.Kind == want.kind {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fail(fmt.Errorf("timeline missing %s.%s %s after index %d (%d events total)",
				want.layer, want.op, want.kind, idx, len(events)))
		}
		e := events[found]
		if want.kind == "replayed" && e.Arg < 1 {
			return nil, fail(fmt.Errorf("replay applied %d records, want >= 1", e.Arg))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s.%s %s", e.Layer, e.Op, e.Kind),
			fmt.Sprintf("%.1f", float64(e.T)/1e6),
			e.Server,
			e.Detail,
		})
		idx = found + 1
	}
	return t, nil
}

// failDump keeps the evidence of a failed gate for CI, which uploads
// FORENSICS_*.json and ACCOUNTS_*.json: dump, with the reason, in
// FORENSICS_<name>.json and, when acct is set, the account table in
// ACCOUNTS_<name>.json. It returns err naming the files it wrote.
func failDump(name string, err error, dump obs.ForensicsDump, acct *obs.AccountTable) error {
	dump.Schema, dump.Reason = obs.ForensicsSchema, name+": "+err.Error()
	if dump.TakenAtNs == 0 {
		dump.TakenAtNs = time.Now().UnixNano()
	}
	files := [][2]string{{"FORENSICS_" + name + ".json", dump.JSON()}}
	if acct != nil {
		if b, merr := json.MarshalIndent(acct.Snapshot(), "", "  "); merr == nil {
			files = append(files, [2]string{"ACCOUNTS_" + name + ".json", string(b)})
		}
	}
	var kept []string
	for _, f := range files {
		if os.WriteFile(f[0], []byte(f[1]), 0o644) == nil {
			kept = append(kept, f[0])
		}
	}
	if len(kept) > 0 {
		return fmt.Errorf("%w (evidence dumped to %v)", err, kept)
	}
	return err
}
