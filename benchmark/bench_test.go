package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyPlan runs a workload in about a second of measured time; the
// numbers mean nothing, the names and the oracle are what is tested.
func tinyPlan() plan {
	return plan{sz: tinySizes, warmup: 200 * time.Millisecond, measure: time.Second,
		setups: 1, ablation: 400 * time.Millisecond, driveDiv: 200}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkResult holds a run's output against the contract: exactly the
// spec's names, each with the spec's unit, and a line that survives a
// JSON round trip with exactly the four keys.
func checkResult(t *testing.T, r result, spec []specMetric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("oracle: correct=%v attempted=%d failed=%d errors=%v", r.Correct, r.Attempted, r.Failed, r.Errors)
	}
	for _, m := range spec {
		got, ok := r.Metrics[m.Name]
		switch {
		case !nameRE.MatchString(m.Name):
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		case !ok:
			t.Errorf("metric %s is in BENCHMARK.json but was not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: emitted unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(r.Metrics) != len(spec) {
		for name := range r.Metrics {
			if !hasMetric(spec, name) {
				t.Errorf("metric %s was emitted but is not in BENCHMARK.json", name)
			}
		}
	}
	line, err := r.line()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatalf("line does not parse: %v\n%s", err, line)
	}
	if len(keys) != 4 {
		t.Errorf("line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Metrics, r.Metrics) || back.Attempted != r.Attempted {
		t.Errorf("line does not round-trip")
	}
}

func hasMetric(spec []specMetric, name string) bool {
	for _, m := range spec {
		if m.Name == name {
			return true
		}
	}
	return false
}

func TestWorkloads(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	host := hostInfo{NProc: 1, GOMAXPROCS: 1, SleepFloorUs: 1000}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			r, err := runWorkload(w, 7, tinyPlan(), false, host, "")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, spec.EndToEnd)
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the contract wants it never 0", name, m.Value)
				}
			}
		})
	}
	// One traced run covers every per-layer name: the drives and the
	// ablation are the same whatever the workload.
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		w, _ := findWorkload("meta_smallfile")
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		r, err := runWorkload(w, 7, tinyPlan(), true, host, spans)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, r, spec.PerLayer)
	})
}

// TestSeedFixesInputs: the same seed generates the same calls, another
// seed generates others (stream_largefile's calls are fixed; there the
// seed only picks the bytes).
func TestSeedFixesInputs(t *testing.T) {
	gen := func(w workload, seed int64) []op {
		var ops []op
		for client := range numClients {
			g := w.newGen(seed, client, tinySizes)
			for _, stage := range g.prefill() {
				ops = append(ops, stage...)
			}
			for range 20 {
				ops = g.next(ops)
			}
		}
		return ops
	}
	for _, w := range workloads {
		a, b, c := gen(w, 1), gen(w, 1), gen(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated two different sequences", w.name)
		}
		if w.name != "stream_largefile" && reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same sequence", w.name)
		}
	}
	if bytes.Equal(newNoise(1), newNoise(2)) {
		t.Error("seeds 1 and 2 fill files with the same bytes")
	}
}

// TestOracleCatchesStaleData: a record that carries an older tag than
// the last completed write, or the wrong payload, fails the check.
func TestOracleCatchesStaleData(t *testing.T) {
	nz := newNoise(1)
	m := newFileModel(2 * recSize)
	buf := make([]byte, 2*recSize)
	nz.fill(buf, 0, 5)
	m.beginWrite(0, len(buf), 5)
	m.endWrite(0, len(buf), 5)
	floors := m.floors(nil, 0, len(buf))
	if err := m.check(nz, buf, 0, floors); err != nil {
		t.Fatalf("fresh data rejected: %v", err)
	}
	stale := make([]byte, 2*recSize)
	nz.fill(stale, 0, 4)
	if err := m.check(nz, stale, 0, floors); err == nil {
		t.Error("stale tag accepted")
	}
	buf[recSize+100] ^= 1
	if err := m.check(nz, buf, 0, floors); err == nil {
		t.Error("corrupt payload accepted")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	host := hostInfo{NProc: 2, GOMAXPROCS: 2, SleepFloorUs: 1100}
	mk := func(name string, h hostInfo, ops, p50 float64) string {
		o := outFile{Schema: outSchema, Host: h, Seconds: 12, Results: map[string]result{
			"cached_hot": {Correct: true, Attempted: 1, Metrics: map[string]metric{
				"ops_per_s": {ops, "1/s"}, "op_p50_ms": {p50, "ms"}}}}}
		path := filepath.Join(dir, name)
		if err := o.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := mk("old.json", host, 1000, 1.0)

	var out bytes.Buffer
	if code := compareFiles(spec, base, mk("same.json", host, 1010, 1.01), &out); code != 0 {
		t.Errorf("a 1 %% difference: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(spec, base, mk("worse.json", host, 500, 1.0), &out); code != 1 {
		t.Errorf("halved throughput: exit %d, want 1", code)
	}
	for _, want := range []string{"regressed", "within-bound", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks a %q verdict:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareFiles(spec, base, mk("better.json", host, 2000, 1.0), &out); code != 0 || !strings.Contains(out.String(), "improved") {
		t.Errorf("doubled throughput: exit %d\n%s", code, out.String())
	}
	other := host
	other.SleepFloorUs = 60
	if code := compareFiles(spec, base, mk("other.json", other, 1000, 1.0), &out); code != 2 {
		t.Errorf("a host with another sleep floor: exit %d, want 2", code)
	}
}
