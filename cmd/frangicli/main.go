// Command frangicli is an interactive shell over an in-process
// Frangipani cluster: two Petal-backed file servers share one virtual
// disk, and every command can be routed to either server with the
// `on` command, making the coherence guarantees directly observable.
//
//	$ go run ./cmd/frangicli
//	ws1> mkdir /demo
//	ws1> put /demo/hello.txt hello world
//	ws1> on ws2
//	ws2> cat /demo/hello.txt
//	hello world
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"frangipani"
	fslayout "frangipani/internal/fs"
	"frangipani/internal/obs"
)

func main() {
	cluster, err := frangipani.NewCluster(frangipani.DefaultClusterConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "frangicli:", err)
		os.Exit(1)
	}
	defer cluster.Close()
	servers := map[string]*frangipani.FS{}
	for _, name := range []string{"ws1", "ws2"} {
		f, err := cluster.AddServer(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frangicli:", err)
			os.Exit(1)
		}
		servers[name] = f
	}
	cur := "ws1"
	fmt.Println("frangipani shell — two servers (ws1, ws2) share one disk; `help` for commands")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("%s> ", cur)
		if !sc.Scan() {
			return
		}
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		fs := servers[cur]
		var err error
		switch args[0] {
		case "help":
			fmt.Println(`commands:
  on <ws1|ws2>         switch the server executing commands
  ls [path]            list a directory
  mkdir|rmdir <path>   make / remove a directory
  touch|rm <path>      create / remove a file
  put <path> <text..>  write text into a file
  cat <path>           print a file
  mv <src> <dst>       rename
  ln -s <tgt> <path>   symlink
  stat <path>          show metadata
  sync                 flush this server
  stats [json|trace|shards]
                       cluster metrics snapshot; 'trace' renders the
                       span tree of the last completed operation,
                       'shards' shows the lock shard map (epoch,
                       per-shard op counts, owners)
  watch [n]            render n windowed refreshes (default 5, 1/s):
                       per-window op rates and p99s, health verdict,
                       and the hot-lock table
  health [json]        evaluate the cluster health probes
  hotlocks [json]      top contended locks (acquire wait + revokes)
                       over the recorders' window, with the shard
                       and lock server each maps to
  top [json]           per-principal account table: who is moving
                       bytes, issuing RPCs, and waiting on locks;
                       do work through an FS.As view to attribute
                       it (unattributed work shows as 'unknown')
  forensics [json]     merged cross-server event timeline (flight
                       recorder); variants:
                         forensics lock <id|inode/N>   one lock's story,
                           including shard-map epochs and handoffs
                           covering its shard
                         forensics op <traceID-hex>    what happened
                           while one traced operation ran
                         forensics last <dur>          e.g. last 2s
                       append 'json' for a machine-readable dump
  critpath [json]      critical-path profile of recent traces
                       ("where does a Sync go")
  fsck                 offline consistency check
  quit`)
		case "on":
			if len(args) == 2 && servers[args[1]] != nil {
				cur = args[1]
			} else {
				fmt.Println("usage: on ws1|ws2")
			}
		case "ls":
			path := "/"
			if len(args) > 1 {
				path = args[1]
			}
			var ents []frangipani.DirEntry
			ents, err = fs.ReadDir(path)
			for _, e := range ents {
				fmt.Printf("%-8s %s\n", e.Type, e.Name)
			}
		case "mkdir":
			err = fs.Mkdir(arg(args, 1))
		case "rmdir":
			err = fs.Rmdir(arg(args, 1))
		case "touch":
			err = fs.Create(arg(args, 1))
		case "rm":
			err = fs.Remove(arg(args, 1))
		case "mv":
			err = fs.Rename(arg(args, 1), arg(args, 2))
		case "ln":
			if len(args) == 4 && args[1] == "-s" {
				err = fs.Symlink(args[2], args[3])
			} else {
				fmt.Println("usage: ln -s <target> <path>")
			}
		case "put":
			var h *frangipani.File
			h, err = fs.OpenFile(arg(args, 1), true)
			if err == nil {
				_, err = h.WriteAt([]byte(strings.Join(args[2:], " ")+"\n"), 0)
			}
		case "cat":
			var h *frangipani.File
			h, err = fs.Open(arg(args, 1))
			if err == nil {
				var size int64
				if size, err = h.Size(); err == nil {
					buf := make([]byte, size)
					var n int
					n, err = h.ReadAt(buf, 0)
					if err == io.EOF {
						err = nil
					}
					os.Stdout.Write(buf[:n])
				}
			}
		case "stat":
			var info frangipani.Info
			info, err = fs.Stat(arg(args, 1))
			if err == nil {
				fmt.Printf("inum=%d type=%s size=%d nlink=%d\n", info.Inum, info.Type, info.Size, info.Nlink)
			}
		case "sync":
			err = fs.Sync()
		case "stats":
			reg := cluster.Obs()
			if reg == nil {
				fmt.Println("observability disabled")
				break
			}
			switch arg(args, 1) {
			case "json":
				fmt.Println(reg.Snapshot().JSON())
			case "trace":
				tr := reg.Tracer()
				if out := tr.RenderTrace(tr.LastRoot()); out != "" {
					fmt.Print(out)
				} else {
					fmt.Println("no completed trace yet")
				}
			case "shards":
				epoch, owners := cluster.LockShardMap()
				counters := reg.Snapshot().Counters
				fmt.Printf("shard map epoch %d, %d shards across %s\n",
					epoch, len(owners), strings.Join(cluster.LockServerNames(), " "))
				fmt.Printf("  %-8s %-10s %10s\n", "shard", "owner", "ops")
				for sh, owner := range owners {
					ops := counters[fmt.Sprintf("lockservice.shard.ops#s%03d", sh)]
					if ops == 0 {
						continue
					}
					fmt.Printf("  s%03d     %-10s %10d\n", sh, owner, ops)
				}
			default:
				fmt.Print(reg.Snapshot().Text())
			}
		case "watch":
			reg := cluster.Obs()
			if reg == nil {
				fmt.Println("observability disabled")
				break
			}
			rounds := 5
			if n, convErr := strconv.Atoi(arg(args, 1)); convErr == nil && n > 0 {
				rounds = n
			}
			ring := cluster.Windows()
			for i := 0; i < rounds; i++ {
				time.Sleep(time.Second)
				win := ring.Advance()
				fmt.Printf("--- refresh %d/%d ---\n", i+1, rounds)
				fmt.Print(win.Text())
				rep := cluster.Health()
				fmt.Printf("health: %s", rep.Verdict)
				for _, p := range rep.Probes {
					if p.Status != 0 {
						fmt.Printf("  [%s %s: %s]", p.Status, p.Name, p.Detail)
					}
				}
				fmt.Println()
				if top := reg.HotLocks(5); len(top) > 0 {
					fmt.Print(obs.RenderResources("hot locks", top))
				}
				anoms, _ := cluster.Anomalies().Observe(win)
				for _, a := range anoms {
					fmt.Printf("ANOMALY %s: %s %.1f (baseline %.1f)\n", a.Kind, a.Metric, a.Value, a.Baseline)
				}
			}
		case "health":
			if arg(args, 1) == "json" {
				printJSON(cluster.Health())
			} else {
				fmt.Print(cluster.Health().Text())
			}
		case "hotlocks":
			reg := cluster.Obs()
			if reg == nil {
				fmt.Println("observability disabled")
				break
			}
			top := reg.HotLocks(10)
			if arg(args, 1) == "json" {
				type hotLock struct {
					obs.ResourceStat
					Shard int    `json:"shard"`
					Owner string `json:"owner"`
				}
				out := make([]hotLock, len(top))
				for i, st := range top {
					sh, owner := cluster.LockShardFor(st.ID)
					out[i] = hotLock{ResourceStat: st, Shard: sh, Owner: owner}
				}
				printJSON(out)
				break
			}
			if len(top) == 0 {
				fmt.Println("no lock acquisitions recorded yet")
				break
			}
			fmt.Printf("hot locks:\n  %-28s %10s %12s %8s  %-6s %s\n",
				"resource", "acquires", "wait (ms)", "revokes", "shard", "owner")
			for _, st := range top {
				sh, owner := cluster.LockShardFor(st.ID)
				fmt.Printf("  %-28s %10d %12.3f %8d  s%03d   %s\n",
					st.Name, st.Acquires, float64(st.WaitNs)/1e6, st.Events, sh, owner)
			}
		case "top":
			acct := cluster.Accounts()
			if acct == nil {
				fmt.Println("accounting disabled")
				break
			}
			// Each invocation closes a window of the cluster's ring,
			// so the "now" column reads as activity since the window
			// before it (the previous `top` or watch refresh).
			win := cluster.Windows().Advance()
			stats := acct.Snapshot()
			if arg(args, 1) == "json" {
				printJSON(struct {
					Accounts      []obs.AccountStat `json:"accounts"`
					WindowSeconds float64           `json:"window_seconds"`
					Window        []obs.AccountStat `json:"window"`
				}{stats, win.Seconds(), win.Accounts})
			} else if len(stats) == 0 {
				fmt.Println("no attributed work yet")
			} else {
				fmt.Print(obs.RenderAccounts(stats, win))
			}
		case "forensics":
			if cluster.Obs() == nil {
				fmt.Println("observability disabled")
				break
			}
			err = forensics(cluster, args[1:])
		case "critpath":
			reg := cluster.Obs()
			if reg == nil {
				fmt.Println("observability disabled")
				break
			}
			cp := obs.NewCritPath()
			cp.AddTracer(reg.Tracer(), 0)
			if arg(args, 1) == "json" {
				printJSON(critJSON(cp))
				break
			}
			if out := cp.Report(); out != "" {
				fmt.Print(out)
			} else {
				fmt.Println("no completed traces yet")
			}
		case "fsck":
			for _, f := range servers {
				_ = f.Sync()
			}
			var rep *frangipani.Report
			rep, err = cluster.Fsck()
			if err == nil {
				if rep.OK() {
					fmt.Printf("clean (%d inodes, %d blocks)\n", rep.Inodes, rep.Blocks)
				}
				for _, p := range rep.Problems {
					fmt.Printf("PROBLEM [%s] %s\n", p.Kind, p.Msg)
				}
			}
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command; `help`")
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	}
}

func arg(args []string, i int) string {
	if i < len(args) {
		return args[i]
	}
	return ""
}

// critRoot is the machine-readable shape of one critpath section.
type critRoot struct {
	Op       string          `json:"op"`
	Count    int64           `json:"count"`
	MeanNs   int64           `json:"mean_ns"`
	Coverage float64         `json:"coverage"`
	Profile  []obs.PathEntry `json:"profile"`
}

// critJSON flattens a critical-path profile for `critpath json`.
func critJSON(cp *obs.CritPath) []critRoot {
	out := []critRoot{}
	for _, op := range cp.RootOps() {
		out = append(out, critRoot{
			Op:       op,
			Count:    cp.Count(op),
			MeanNs:   cp.MeanNs(op),
			Coverage: cp.Coverage(op),
			Profile:  cp.Profile(op),
		})
	}
	return out
}

func printJSON(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(string(b))
}

// forensics implements the `forensics` shell command: it merges every
// server's flight-recorder journal into one causally-ordered timeline,
// optionally narrowed to a lock, a trace, or a recent window. A lock's
// story also carries the shard-map epoch changes, handoffs, and
// wrong-shard nacks that decided where the lock was served, so shard
// ownership over time is visible alongside the grants and revokes.
func forensics(cluster *frangipani.Cluster, args []string) error {
	var f obs.Filter
	var traceOut string
	var lockID uint64
	var until int64 // with "op": when the traced operation ended
	asJSON := false
	for len(args) > 0 {
		switch args[0] {
		case "json":
			asJSON = true
			args = args[1:]
		case "lock":
			if len(args) < 2 {
				return fmt.Errorf("usage: forensics lock <id|inode/N|bitmap-seg/N>")
			}
			id, ok := fslayout.ParseLockName(args[1])
			if !ok {
				return fmt.Errorf("cannot parse lock %q", args[1])
			}
			// Filter only by layer here: shardmap/handoff events are
			// keyed to shards, not locks, and would be dropped by a
			// Key filter. lockEvents narrows per event below.
			lockID, f.Layer = id, "lockservice"
			args = args[2:]
		case "op":
			if len(args) < 2 {
				return fmt.Errorf("usage: forensics op <traceID-hex>")
			}
			id, err := strconv.ParseUint(strings.TrimPrefix(args[1], "0x"), 16, 64)
			if err != nil {
				return fmt.Errorf("cannot parse trace id %q", args[1])
			}
			// The trace's spans are records of the timeline; the events
			// beside them join on time: show what happened while the
			// operation ran.
			for _, sp := range cluster.Obs().Tracer().SpansFor(id) {
				if f.Since == 0 || sp.Start < f.Since {
					f.Since = sp.Start
				}
				until = max(until, sp.End)
			}
			traceOut = cluster.Obs().Tracer().RenderTrace(id)
			args = args[2:]
		case "last":
			if len(args) < 2 {
				return fmt.Errorf("usage: forensics last <duration>")
			}
			d, err := time.ParseDuration(args[1])
			if err != nil {
				return err
			}
			f.Since = cluster.NowNs() - int64(d)
			args = args[2:]
		default:
			return fmt.Errorf("unknown forensics argument %q", args[0])
		}
	}
	events := cluster.Timeline(f)
	if until != 0 {
		kept := events[:0]
		for _, e := range events {
			if e.T <= until {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if lockID != 0 {
		events = lockEvents(events, lockID)
	}
	if asJSON {
		dump := cluster.Forensics("cli request")
		dump.Events = events
		fmt.Println(dump.JSON())
		return nil
	}
	if traceOut != "" {
		fmt.Print(traceOut)
	}
	fmt.Print(obs.RenderTimeline(events, cluster.EntityNamer()))
	return nil
}

// lockEvents keeps the events that tell one lock's story: its own
// grants/revokes/releases plus every shard-map epoch change, handoff,
// and wrong-shard nack — the routing history that determines which
// server was serving the lock at each moment.
func lockEvents(events []obs.Event, lockID uint64) []obs.Event {
	kept := events[:0]
	for _, e := range events {
		if e.Key == lockID || e.Op == "shardmap" || e.Op == "handoff" || e.Op == "shard" {
			kept = append(kept, e)
		}
	}
	return kept
}
