// Command benchmark is the repository's yardstick: four closed-loop
// file-system workloads on the stock in-process cluster, read on two
// clocks (simulated time as wall time at compression 1, and what the Go
// code costs the host), with an oracle on every byte. README.md in this
// directory says how to run it and what every number means;
// ../BENCHMARK.json is the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Written by -out only: the printed line has exactly the keys above.
	Samples map[string]int `json:"samples,omitempty"`
	Errors  []string       `json:"errors,omitempty"`
}

// line is the run's last line of standard output.
func (r result) line() ([]byte, error) {
	r.Samples, r.Errors = nil, nil
	return json.Marshal(r)
}

// units of every metric the benchmark can print; ../BENCHMARK.json
// repeats them and the smoke test holds the two together.
var endToEndUnits = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
	"write_MBps": "MB/s", "read_MBps": "MB/s", "host_allocs_per_op": "count", "peak_rss_mb": "MB",
}

// unitOf derives a per-layer metric's unit from its name's suffix.
func unitOf(name string) string {
	if u, ok := endToEndUnits[name]; ok {
		return u
	}
	for _, s := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"}, {"_MBps", "MB/s"}, {"_pct", "%"}, {"_s", "s"},
		{"_ms_per_op", "ms"}, {"_us_per_op", "us"}, {"bytes_per_op", "B"}, {"_ratio", "ratio"}, {"_share", "ratio"}, {".coverage", "ratio"},
		{"_per_user_byte", "ratio"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 12, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: traced run that prints the per-layer metrics; 0: the end-to-end metrics")
		out          = flag.String("out", "", "also write every result, with the host's description, to this file")
		spans        = flag.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.jsonl)")
		compare      = flag.Bool("compare", false, "compare two -out files: benchmark -compare old.json new.json")
		spec         = flag.String("spec", "BENCHMARK.json", "the contract with the bounds -compare applies")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare old.json new.json")
		}
		os.Exit(compareFiles(*spec, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	run := workloads
	if *workloadName != "all" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatalf("unknown workload %q", *workloadName)
		}
		run = []workload{w}
	}

	host := describeHost()
	report := outFile{Schema: outSchema, Host: host, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Results: map[string]result{}}
	ok := true
	for _, w := range run {
		spansPath := *spans
		if spansPath == "" {
			spansPath = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		}
		r, err := runWorkload(w, *seed, fullPlan(time.Duration(*seconds*float64(time.Second))), *trace == 1, host, spansPath)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printTable(os.Stderr, w, r)
		line, err := r.line()
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		fmt.Printf("%s\n", line)
		report.Results[w.name] = r
		ok = ok && r.Correct
	}
	if *out != "" {
		if err := report.write(*out); err != nil {
			fatalf("%v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// hostInfo is what two runs must share to be comparable.
type hostInfo struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	SleepFloorUs float64 `json:"sleep_floor_us"`
	LoadAvg      float64 `json:"loadavg_start"`
	Go           string  `json:"go"`
}

func describeHost() hostInfo {
	return hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SleepFloorUs: sleepFloorUs(), LoadAvg: loadAvg(), Go: runtime.Version()}
}

// sleepFloorUs is the median time a 100 us time.Sleep really takes. The
// simulator sleeps for every modelled cost, so on a host whose floor is
// a millisecond every sub-millisecond simulated cost is one floor:
// numbers compare only between hosts with the same floor.
func sleepFloorUs() float64 {
	ds := make([]float64, 101)
	for i := range ds {
		start := time.Now()
		time.Sleep(100 * time.Microsecond)
		ds[i] = float64(time.Since(start)) / 1e3
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

func loadAvg() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return unresolved
	}
	first, _, _ := strings.Cut(string(raw), " ")
	v, err := strconv.ParseFloat(first, 64)
	if err != nil {
		return unresolved
	}
	return v
}

// plan is how long and how large one run is. The benchmark runs
// fullPlan; the smoke test runs a small one.
type plan struct {
	sz       sizes
	warmup   time.Duration
	measure  time.Duration
	setups   int           // set-ups per untraced run; setup_s is their median
	ablation time.Duration // window of each of the two obs ablation runs
	driveDiv int           // the drives run 1/driveDiv of their iterations
}

func fullPlan(measure time.Duration) plan {
	return plan{sz: fullSizes, warmup: min(maxWarmup, measure/warmupFrac), measure: measure,
		setups: setupReps, ablation: 2 * time.Second, driveDiv: 1}
}

// runWorkload performs one run: set up, warm up, measure, let the
// oracle check, and report. An untraced run then sets up again for
// setup_s; a traced run adds the drives and the obs ablation.
func runWorkload(w workload, seed int64, p plan, trace bool, host hostInfo, spansPath string) (result, error) {
	wallStart := time.Now()
	b, setup, err := setUp(w, seed, p.sz, false, trace)
	if err != nil {
		return result{}, err
	}
	win := b.runWindow(p.warmup, p.measure)
	rss := peakRSSMB()
	var layers map[string]float64
	if trace {
		layers = b.layerMetrics(win)
		critPath(b.cluster.Obs(), layers)
	}
	checks, failed := b.verify()
	var spans []span
	for _, cl := range b.clients {
		failed += cl.failed
		spans = append(spans, cl.spans...)
	}
	b.close()

	r := result{Attempted: win.ops + checks, Failed: failed, Metrics: map[string]metric{},
		Samples: map[string]int{"ops": int(win.ops), w.headline: len(win.head)}, Errors: b.errs.msgs}
	r.Correct = failed == 0
	for k := range win.lat {
		if n := len(win.lat[k]); n > 0 {
			r.Samples["fs."+opKind(k).String()] = n
		}
	}
	values := layers
	if !trace {
		setups := []float64{setup.Seconds()}
		for len(setups) < p.setups {
			runtime.GC()
			extra, d, err := setUp(w, seed, p.sz, false, false)
			if err != nil {
				return result{}, err
			}
			extra.close()
			setups = append(setups, d.Seconds())
		}
		sort.Float64s(setups)
		ops := float64(win.ops)
		values = map[string]float64{
			"setup_s":            setups[len(setups)/2],
			"ops_per_s":          win.opsPerSec,
			"op_p50_ms":          nsToMs(quantile(win.head, 0.50)),
			"op_p90_ms":          nsToMs(quantile(win.head, 0.90)),
			"write_MBps":         mbps(win.bytesWrote, win.writeNs),
			"read_MBps":          mbps(win.bytesRead, win.readNs),
			"host_allocs_per_op": float64(win.host.allocs) / ops,
			"peak_rss_mb":        rss,
		}
	} else {
		d := runDrives(p.driveDiv)
		for name, v := range d.m {
			values[name] = v
		}
		values["obs.cpu_overhead_pct"] = obsOverheadPct(seed, p)
		values["harness.trace_overhead_pct"] = win.traceOverheadPct
		values["harness.sleep_floor_us"] = host.SleepFloorUs
		values["harness.loadavg_start"] = host.LoadAvg
		values["harness.host_cpu_us_per_op"] = float64(win.host.cpu) / 1e3 / float64(win.ops)
		values["harness.op_p95_ms"] = nsToMs(quantile(win.head, 0.95))
		values["harness.gc_cycles"] = float64(win.host.gcs)
		values["harness.gc_pause_ms"] = float64(win.host.gcNs) / 1e6
		values["harness.wall_s"] = time.Since(wallStart).Seconds()
		if err := writeSpans(spansPath, b.epoch, spans, d.spans); err != nil {
			warnf("spans not written: %v", err)
		}
	}
	for name, v := range values {
		r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return r, nil
}

func mbps(bytes, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / (float64(ns) / 1e9)
}

// obsOverheadPct is the host CPU per call of cached_hot with the
// program's observability as shipped over the same with it off. The
// windows are short: this is a per-layer indicator, not a gate.
func obsOverheadPct(seed int64, p plan) float64 {
	hot, _ := findWorkload("cached_hot")
	var cpuPerOp [2]float64
	for i, noObs := range []bool{false, true} {
		b, _, err := setUp(hot, seed, p.sz, noObs, false)
		if err != nil {
			warnf("obs ablation: %v", err)
			return unresolved
		}
		win := b.runWindow(p.ablation/4, p.ablation)
		b.close()
		if win.ops == 0 {
			return unresolved
		}
		cpuPerOp[i] = float64(win.host.cpu) / float64(win.ops)
	}
	return (cpuPerOp[0] - cpuPerOp[1]) / cpuPerOp[1] * 100
}

// writeSpans writes the traced run's spans, one JSON object per line:
// a root span per client iteration, a child per file-system call, and
// the drives' batches with client -1.
func writeSpans(path string, epoch time.Time, spans []span, drives []driveSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	for i, d := range drives {
		s := span{Client: -1, ID: i + 1, Name: d.name, Start: int64(d.start.Sub(epoch)), End: int64(d.end.Sub(epoch))}
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printTable prints every metric by name with its unit, for people.
func printTable(w *os.File, wl workload, r result) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d headline=%s ==\n", wl.name, r.Correct, r.Attempted, r.Failed, wl.headline)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	names = names[:0]
	for name := range r.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "  samples:")
	for _, name := range names {
		fmt.Fprintf(w, " %s=%d", name, r.Samples[name])
	}
	fmt.Fprintln(w)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}
