// Command frangibench regenerates the tables and figures of the
// Frangipani paper's evaluation (§9) on the simulated testbed.
//
// Usage:
//
//	frangibench                 # run every experiment
//	frangibench -exp table1     # one experiment
//	frangibench -quick          # smaller workloads (smoke run)
//	frangibench -list           # list experiment names
//	frangibench -exp lock-scaling -out f.json  # also write the table as a record
//	frangibench -snapshot text  # run the small workload, print the registry
//	frangibench -json f.json    # run the small workload, write a report
//
// See EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"frangipani"
	"frangipani/internal/bench"
	"frangipani/internal/obs"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment to run (default: all)")
		quick       = flag.Bool("quick", false, "smaller workloads")
		list        = flag.Bool("list", false, "list experiments and exit")
		compression = flag.Float64("compression", 1, "simulated seconds per real second")
		machines    = flag.Int("machines", 6, "maximum Frangipani machines in scaling sweeps")
		petals      = flag.Int("petals", 7, "number of Petal servers")
		snapshot    = flag.String("snapshot", "", "run the small workload and dump the metrics registry (text|json)")
		jsonOut     = flag.String("json", "", "run the small workload and write a machine-readable report to this path")
		out         = flag.String("out", "", "with -exp: write the experiment's table, git SHA and host as a JSON record to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e.Name)
		}
		return
	}

	if *snapshot != "" {
		if err := dumpSnapshot(*snapshot); err != nil {
			fmt.Fprintln(os.Stderr, "frangibench:", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut != "" {
		if err := writeJSONReport(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "frangibench:", err)
			os.Exit(1)
		}
		return
	}

	o := bench.DefaultOptions()
	o.Quick = *quick
	o.Compression = *compression
	o.MaxMachines = *machines
	o.PetalServers = *petals

	if *exp != "" {
		tb, err := o.ByName(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "frangibench:", err)
			os.Exit(1)
		}
		fmt.Print(tb.Render())
		if *out != "" {
			if err := writeTrajectory(*out, *exp, tb); err != nil {
				fmt.Fprintln(os.Stderr, "frangibench:", err)
				os.Exit(1)
			}
		}
		return
	}

	if *out != "" {
		fmt.Fprintln(os.Stderr, "frangibench: -out needs -exp")
		os.Exit(2)
	}
	// Run each experiment in a fresh child process: at clock
	// compression 1, heap retained from earlier experiments would
	// inflate later wall-derived timings through GC pauses.
	self, err := os.Executable()
	if err != nil {
		self = ""
	}
	for _, e := range bench.Experiments {
		n := e.Name
		if self != "" {
			cmd := exec.Command(self,
				"-exp", n,
				fmt.Sprintf("-quick=%v", *quick),
				fmt.Sprintf("-compression=%v", *compression),
				fmt.Sprintf("-machines=%d", *machines),
				fmt.Sprintf("-petals=%d", *petals))
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintln(os.Stderr, "frangibench:", n, err)
				os.Exit(1)
			}
		} else {
			tb, err := e.Run(o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "frangibench:", n, err)
				os.Exit(1)
			}
			fmt.Print(tb.Render())
		}
		fmt.Println()
	}
}

// benchReport is the machine-readable output of -json: per-operation
// latency summaries, RPC/request counts, a critical-path profile of
// the traced operations, and the full registry snapshot for anything
// a consumer wants that the curated sections omit.
type benchReport struct {
	Ops        map[string]obs.HistStat `json:"op_latencies"`
	RPCs       map[string]int64        `json:"rpc_counts"`
	Principals []obs.AccountStat       `json:"principals,omitempty"`
	CritPath   []critEntry             `json:"critical_path,omitempty"`
	Snapshot   obs.Snapshot            `json:"snapshot"`
}

type critEntry struct {
	RootOp   string          `json:"root_op"`
	Count    int64           `json:"count"`
	MeanNs   int64           `json:"mean_ns"`
	Coverage float64         `json:"coverage"`
	Layers   []obs.PathEntry `json:"layers"`
}

// writeJSONReport runs the small workload and writes a benchReport to
// path.
func writeJSONReport(path string) error {
	rep, err := collectJSONReport()
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// collectJSONReport runs the small workload and gathers a benchReport.
func collectJSONReport() (*benchReport, error) {
	c, err := frangipani.NewCluster(frangipani.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := smallWorkload(c); err != nil {
		return nil, err
	}
	reg := c.Obs()
	snap := reg.Snapshot()
	rep := benchReport{
		Ops:        map[string]obs.HistStat{},
		RPCs:       map[string]int64{},
		Principals: snap.Accounts,
		Snapshot:   snap,
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "fs.") && strings.Contains(name, ".latency") {
			rep.Ops[name] = h
		}
	}
	for name, v := range snap.Counters {
		if strings.Contains(name, ".rpcs#") || strings.Contains(name, ".requests#") {
			rep.RPCs[name] = v
		}
	}
	cp := obs.NewCritPath()
	cp.AddTracer(reg.Tracer(), 0)
	for _, root := range cp.RootOps() {
		rep.CritPath = append(rep.CritPath, critEntry{
			RootOp:   root,
			Count:    cp.Count(root),
			MeanNs:   cp.MeanNs(root),
			Coverage: cp.Coverage(root),
			Layers:   cp.Profile(root),
		})
	}
	return &rep, nil
}

// trajectorySchema versions the -out record layout so downstream
// trend tooling can evolve without guessing at shapes.
const trajectorySchema = "frangipani-bench/v1"

// trajectoryRecord is one experiment's persisted table: which
// experiment ran, on which commit, when, and what it measured.
type trajectoryRecord struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	GitSHA     string `json:"git_sha"`
	TakenAt    string `json:"taken_at"`
	// GoMaxProcs and NumCPU identify the host parallelism a record
	// was measured under: scaling sweeps dilate the simulated clock,
	// but host saturation can still skew absolute numbers, so trend
	// tooling must compare like with like.
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Table      *bench.Table `json:"table,omitempty"`
}

// writeTrajectory writes one trajectoryRecord to path.
func writeTrajectory(path, experiment string, tb *bench.Table) error {
	rec := trajectoryRecord{
		Schema:     trajectorySchema,
		Experiment: experiment,
		GitSHA:     gitSHA(),
		TakenAt:    time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Table:      tb,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitSHA identifies the commit a trajectory record was measured on.
// CI environments expose it even without a .git checkout.
func gitSHA() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if s := strings.TrimSpace(string(out)); s != "" {
			return s
		}
	}
	if s := os.Getenv("GITHUB_SHA"); s != "" {
		return s
	}
	return "unknown"
}

// smallWorkload exercises every layer once: metadata ops, a 64 KB
// write, a cross-server read (coherence traffic), and syncs.
func smallWorkload(c *frangipani.Cluster) error {
	f, err := c.AddServer("ws1")
	if err != nil {
		return err
	}
	f2, err := c.AddServer("ws2")
	if err != nil {
		return err
	}
	if err := f.Mkdir("/demo"); err != nil {
		return err
	}
	h, err := f.OpenFile("/demo/a", true)
	if err != nil {
		return err
	}
	if _, err := h.WriteAt(make([]byte, 64<<10), 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	h2, err := f2.Open("/demo/a")
	if err != nil {
		return err
	}
	buf := make([]byte, 64<<10)
	if _, err := h2.ReadAt(buf, 0); err != nil {
		return err
	}
	return f2.Sync()
}

// dumpSnapshot runs the small workload on a default cluster and prints
// the full metrics registry plus the span tree of the final Sync — a
// quick way to see what the observability layer records.
func dumpSnapshot(format string) error {
	c, err := frangipani.NewCluster(frangipani.DefaultClusterConfig())
	if err != nil {
		return err
	}
	defer c.Close()
	if err := smallWorkload(c); err != nil {
		return err
	}
	reg := c.Obs()
	if format == "json" {
		fmt.Println(reg.Snapshot().JSON())
		return nil
	}
	fmt.Print(reg.Snapshot().Text())
	tr := reg.Tracer()
	fmt.Println()
	fmt.Print(tr.RenderTrace(tr.LastRoot()))
	return nil
}
