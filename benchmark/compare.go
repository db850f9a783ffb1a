package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

const outSchema = "frangipani-benchmark/v1"

// outFile is what -out writes and -compare reads.
type outFile struct {
	Schema  string            `json:"schema"`
	Host    hostInfo          `json:"host"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Trace   bool              `json:"trace"`
	Results map[string]result `json:"results"`
}

func (o outFile) write(path string) error {
	raw, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readOutFile(path string) (outFile, error) {
	var o outFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return o, err
	}
	if err := json.Unmarshal(raw, &o); err != nil {
		return o, fmt.Errorf("%s: %w", path, err)
	}
	if o.Schema != outSchema {
		return o, fmt.Errorf("%s: schema %q, want %q", path, o.Schema, outSchema)
	}
	return o, nil
}

// specMetric is one metric of BENCHMARK.json; per-layer ones have no
// bound.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// specFile is the part of BENCHMARK.json the benchmark reads.
type specFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (specFile, error) {
	var s specFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints, for every workload and metric the two files
// share, how the new value stands against the old one under the
// metric's bound, and returns the exit code: 0, 1 if anything
// regressed, 2 if the files cannot be compared.
//
// Both files hold one run each, so a difference inside the bound is
// "within-bound", not "unchanged": deciding a gain takes the paired
// runs the contract describes.
func compareFiles(specPath, oldPath, newPath string, w io.Writer) int {
	spec, a, b, err := loadComparison(specPath, oldPath, newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: cannot compare: %v\n", err)
		return 2
	}
	return report(spec, a, b, w)
}

func loadComparison(specPath, oldPath, newPath string) (spec specFile, a, b outFile, err error) {
	if spec, err = readSpec(specPath); err != nil {
		return
	}
	if a, err = readOutFile(oldPath); err != nil {
		return
	}
	if b, err = readOutFile(newPath); err != nil {
		return
	}
	err = sameHost(a, b)
	return
}

// sameHost refuses runs from hosts that differ in what the numbers
// depend on.
func sameHost(a, b outFile) error {
	switch {
	case a.Host.NProc != b.Host.NProc:
		return fmt.Errorf("nproc differs: %d vs %d", a.Host.NProc, b.Host.NProc)
	case a.Host.GOMAXPROCS != b.Host.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS)
	case math.Abs(a.Host.SleepFloorUs-b.Host.SleepFloorUs) > 0.2*a.Host.SleepFloorUs:
		return fmt.Errorf("sleep floor differs by more than 20 %%: %.0f us vs %.0f us", a.Host.SleepFloorUs, b.Host.SleepFloorUs)
	case a.Trace != b.Trace:
		return fmt.Errorf("one file is a traced run and the other is not")
	case a.Seconds != b.Seconds:
		return fmt.Errorf("window length differs: %g s vs %g s", a.Seconds, b.Seconds)
	}
	return nil
}

func report(spec specFile, a, b outFile, w io.Writer) int {
	metrics := spec.EndToEnd
	if a.Trace {
		metrics = spec.PerLayer
	}
	regressed := false
	fmt.Fprintf(w, "%-18s %-36s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	names := make([]string, 0, len(a.Results))
	for name := range a.Results {
		if _, ok := b.Results[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		ra, rb := a.Results[wl], b.Results[wl]
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-18s a run failed its oracle (old correct=%v, new correct=%v): regressed\n", wl, ra.Correct, rb.Correct)
			regressed = regressed || !rb.Correct
		}
		for _, m := range metrics {
			va, oka := ra.Metrics[m.Name]
			vb, okb := rb.Metrics[m.Name]
			verdict, worse, bound := "unresolved", math.NaN(), math.NaN()
			if oka && okb && va.Value != unresolved && vb.Value != unresolved && va.Value != 0 {
				worse = (vb.Value - va.Value) / math.Abs(va.Value)
				if m.Better == "higher" {
					worse = -worse
				}
				if m.Bound != nil {
					bound = *m.Bound
					switch {
					case worse > bound:
						verdict, regressed = "regressed", true
					case worse < -bound:
						verdict = "improved"
					default:
						verdict = "within-bound"
					}
				}
			}
			fmt.Fprintf(w, "%-18s %-36s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl, m.Name, va.Value, vb.Value, worse*100, bound*100, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
