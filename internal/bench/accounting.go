package bench

import (
	"fmt"

	"frangipani/internal/obs"
)

// NoisyNeighborObs is the per-principal accounting gate (run by `make
// bench-smoke`): a streaming writer and an interactive reader share
// one file from different servers, each through its own FS.As view.
// After a few quiet baseline windows the streamer
// floods the file, revoking the reader's locks on every access. The
// experiment asserts the accounting layer saw all of it:
//
//   - >= 95% of bytes and lock-wait nanoseconds are attributed to a
//     named principal (unattributed work lands in a visible "unknown"
//     row, never dropped);
//   - the streamer ranks first by bytes in the account table;
//   - the anomaly watcher fires a noisy-neighbor verdict naming the
//     streamer as hog and the reader as victim, and the verdict is
//     present in the merged forensics timeline.
func (o Options) NoisyNeighborObs() (*Table, error) {
	t := &Table{
		ID:     "Noisy neighbor",
		Title:  "Per-principal accounting under streaming-writer / interactive-reader interference",
		Header: []string{"principal", "wr MB", "rd MB", "rpcs", "lockwait ms", "p99 ms"},
		Notes:  "Gate: >= 95% byte and lock-wait attribution; streamer first by bytes; obs.noisyneighbor event journaled.",
	}
	c, err := o.newCluster(true, nil)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	fss, err := mountN(c, 2, nil)
	if err != nil {
		return nil, err
	}
	ws1, ws2 := fss[0], fss[1]
	acct := c.Accounts()
	if acct == nil {
		return nil, fmt.Errorf("noisy-neighbor-obs: cluster has no account table")
	}
	// A dedicated watcher with a short warm-up; it journals into the
	// cluster journal, which MergeTimeline folds into the forensics
	// timeline.
	watcher := obs.NewAnomalyWatcher(c.Obs().Journal("cluster"), 3)
	// A red run leaves the account table and the merged timeline behind.
	fail := func(err error) error { return failDump("noisy-neighbor-obs", err, c.Forensics(""), acct) }

	const (
		streamer = "streamer"
		reader   = "reader"
	)
	chunk := make([]byte, 256<<10)
	for i := range chunk {
		chunk[i] = byte(i * 17)
	}
	small := make([]byte, 4<<10)

	// Setup, attributed to the streamer: create the shared file and
	// lay down the region the reader will poll.
	stream := func(off int64) error {
		h, err := ws1.As(streamer).OpenFile("/hot", true)
		if err != nil {
			return err
		}
		_, err = h.WriteAt(chunk, off)
		return err
	}
	if err := stream(0); err != nil {
		return nil, err
	}
	rh, err := ws2.As(reader).Open("/hot")
	if err != nil {
		return nil, err
	}
	readN := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := rh.ReadAt(small, int64(i%32)*int64(len(small))); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm read outside the judged windows: pull the data (and the
	// read lock) over to ws2 so the baseline windows measure the
	// steady cached-read latency, not the one-time migration (which
	// the reader's Open, an operation of its own, already paid most of).
	if err := readN(4); err != nil {
		return nil, err
	}
	ring := c.Windows()
	ring.Advance() // close the set-up window unjudged
	closeWindow := func() []obs.NoisyNeighbor {
		_, nn := watcher.Observe(ring.Advance())
		return nn
	}
	// Baseline: the reader alone, fast cached reads. These windows
	// are the watcher's warm-up; nothing may fire.
	for w := 0; w < 3; w++ {
		if err := readN(16); err != nil {
			return nil, err
		}
		if v := closeWindow(); len(v) != 0 {
			return nil, fail(fmt.Errorf("verdict fired during warm-up window %d: %+v", w, v))
		}
	}
	// One deliberately unattributed op, through the server's own view:
	// it must surface as a visible "unknown" principal, not vanish.
	uh, err := ws2.Open("/hot")
	if err != nil {
		return nil, err
	}
	if _, err := uh.ReadAt(small, 0); err != nil {
		return nil, err
	}
	// Spike: the streamer floods the shared file, revoking the
	// reader's cached locks; interleaved reads stall on reacquire.
	var verdicts []obs.NoisyNeighbor
	for w := 0; w < 3; w++ {
		for i := 0; i < 8; i++ {
			if err := stream(int64(i) * int64(len(chunk))); err != nil {
				return nil, err
			}
			if i%2 == 1 {
				if err := readN(2); err != nil {
					return nil, err
				}
			}
		}
		verdicts = append(verdicts, closeWindow()...)
	}

	stats := acct.Snapshot()
	var attrBytes, totBytes, attrWait, totWait int64
	seen := map[string]bool{}
	for _, st := range stats {
		seen[st.Principal] = true
		totBytes += st.Bytes()
		totWait += st.LockWaitNs
		if st.Principal != obs.UnknownPrincipal {
			attrBytes += st.Bytes()
			attrWait += st.LockWaitNs
		}
		t.Rows = append(t.Rows, []string{
			st.Principal,
			fmt.Sprintf("%.2f", float64(st.BytesIn)/(1<<20)),
			fmt.Sprintf("%.2f", float64(st.BytesOut)/(1<<20)),
			fmt.Sprintf("%d", st.RPCs),
			fmt.Sprintf("%.1f", float64(st.LockWaitNs)/1e6),
			fmt.Sprintf("%.2f", float64(st.OpP99Ns)/1e6),
		})
	}
	if !seen[obs.UnknownPrincipal] {
		return nil, fail(fmt.Errorf("unattributed work did not surface as %q", obs.UnknownPrincipal))
	}
	byteFrac := frac(attrBytes, totBytes)
	waitFrac := frac(attrWait, totWait)
	if byteFrac < 0.95 {
		return nil, fail(fmt.Errorf("only %.1f%% of %d bytes attributed (need 95%%)", byteFrac*100, totBytes))
	}
	if waitFrac < 0.95 {
		return nil, fail(fmt.Errorf("only %.1f%% of %.1fms lock-wait attributed (need 95%%)", waitFrac*100, float64(totWait)/1e6))
	}
	if len(stats) == 0 || stats[0].Principal != streamer {
		return nil, fail(fmt.Errorf("streamer not first by bytes (table order: %v)", principals(stats)))
	}
	hogged := false
	for _, v := range verdicts {
		if v.Hog == streamer && v.Victim == reader {
			hogged = true
		}
	}
	if !hogged {
		return nil, fail(fmt.Errorf("no noisy-neighbor verdict naming hog=%s victim=%s (got %+v)", streamer, reader, verdicts))
	}
	inTimeline := false
	for _, e := range c.Timeline(obs.Filter{Layer: "obs"}) {
		if e.Op == "noisyneighbor" {
			inTimeline = true
		}
	}
	if !inTimeline {
		return nil, fail(fmt.Errorf("obs.noisyneighbor event missing from merged timeline"))
	}
	t.Rows = append(t.Rows, []string{"-- attributed", fmt.Sprintf("%.1f%%", byteFrac*100), "", "", fmt.Sprintf("%.1f%%", waitFrac*100), ""})
	return t, nil
}

func frac(part, whole int64) float64 {
	if whole == 0 {
		return 1
	}
	return float64(part) / float64(whole)
}

func principals(stats []obs.AccountStat) []string {
	out := make([]string, len(stats))
	for i, st := range stats {
		out[i] = st.Principal
	}
	return out
}
