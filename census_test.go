package frangipani_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"frangipani"
	"frangipani/internal/bench"
)

// TestKnobCensus's rule one level up: a package, an experiment or a
// Cluster method stays only while something outside the tests reaches
// it, or while a paper section and the test that checks it keep it.

// unimported names each internal package that no non-test code imports,
// with the paper section and the root test that keep it.
var unimported = map[string]string{
	"internal/export": "§2.2, Figure 3: TestFigure3ExportFailover",
}

// experiments names, for every entry of bench.Experiments, the
// EXPERIMENTS.md section it reproduces or the Makefile gate that runs it.
var experiments = map[string]string{
	"table1":             "EXPERIMENTS.md: Table 1 — Modified Andrew Benchmark latency",
	"table2":             "EXPERIMENTS.md: Table 2 — Connectathon-style operation suite",
	"table3":             "EXPERIMENTS.md: Table 3 — Large-file throughput and CPU utilization",
	"fig5":               "EXPERIMENTS.md: Figure 5 — MAB latency vs. machines",
	"fig6":               "EXPERIMENTS.md: Figure 6 — Uncached read scaling",
	"fig7":               "EXPERIMENTS.md: Figure 7 — Write scaling (and the replication ablation)",
	"fig7-norepl":        "EXPERIMENTS.md: Figure 7 — Write scaling (and the replication ablation)",
	"fig8":               "EXPERIMENTS.md: Figure 8 — Reader/writer contention and read-ahead",
	"fig9":               "EXPERIMENTS.md: Figure 9 — Contention vs. shared-region size",
	"wshare":             "EXPERIMENTS.md: Write/write sharing (third §9.4 experiment)",
	"smallreads":         "EXPERIMENTS.md: §9.2 small-file reads",
	"ablation-synclog":   "EXPERIMENTS.md: Ablation — synchronous logging (§4's option)",
	"writeback-pipeline": "EXPERIMENTS.md: Write-back pipeline (beyond the paper's tables)",
	"read-scaling":       "make bench-smoke",
	"obs-overhead":       "make bench-smoke",
	"contention-profile": "make bench-smoke",
	"codec-mux":          "make bench-smoke",
	"lock-scaling":       "make bench-smoke",
	"scale-sweep":        "make bench-smoke",
	"forensics-smoke":    "make bench-smoke",
	"noisy-neighbor-obs": "make bench-smoke",
}

// clusterMethods names, for every exported method of *Cluster, a
// non-test file that calls it, or the paper section and the root test
// that keep it.
var clusterMethods = map[string]string{
	"Accounts":            "cmd/frangicli/main.go",
	"AddServer":           "cmd/frangicli/main.go, benchmark/harness.go",
	"AddServerWithConfig": "examples/failover/main.go",
	"Anomalies":           "cmd/frangicli/main.go",
	"Client":              "cmd/frangick/main.go",
	"Close":               "cmd/frangibench/main.go, benchmark/harness.go",
	"EntityNamer":         "cmd/frangicli/main.go",
	"Forensics":           "internal/bench/forensics.go, cmd/frangicli/main.go",
	"Fsck":                "cmd/frangick/main.go, benchmark/harness.go",
	"Health":              "cmd/frangicli/main.go",
	"Layout":              "cmd/frangick/main.go",
	"LockServerNames":     "examples/backup/main.go",
	"LockShardFor":        "cmd/frangicli/main.go",
	"LockShardMap":        "cmd/frangicli/main.go",
	"NowNs":               "cmd/frangicli/main.go",
	"Obs":                 "cmd/frangibench/main.go, benchmark/main.go",
	"PetalServerNames":    "internal/bench/readpath.go",
	"RemoveServer":        "§7, removing a server: TestClusterLifecycle",
	"Timeline":            "cmd/frangicli/main.go",
	"Windows":             "cmd/frangicli/main.go",
}

// TestPackageCensus fails for an internal package that no non-test code
// of this repository (the benchmark module included) imports and that
// unimported does not keep, and for an unimported entry that names a
// package something now imports, or none.
func TestPackageCensus(t *testing.T) {
	importers := map[string]map[string]bool{} // package dir -> importing dirs
	pkgs := map[string]bool{}
	for _, path := range goFiles(t, false) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if pkg, ok := strings.CutPrefix(p, "frangipani/"); ok && pkg != dir {
				if importers[pkg] == nil {
					importers[pkg] = map[string]bool{}
				}
				importers[pkg][dir] = true
			}
		}
	}
	for pkg := range pkgs {
		why := unimported[pkg]
		switch {
		case len(importers[pkg]) == 0 && why == "":
			t.Errorf("%s has no non-test importer: delete it, or name in unimported the paper section and the test that keep it", pkg)
		case len(importers[pkg]) > 0 && why != "":
			t.Errorf("%s is imported by %v: drop its unimported entry", pkg, sortedSet(importers[pkg]))
		case why != "":
			checkRefs(t, pkg, why, strconv.Quote("frangipani/"+pkg))
		}
	}
	for pkg := range unimported {
		if !pkgs[pkg] {
			t.Errorf("unimported entry %s names no package", pkg)
		}
	}
}

// TestExperimentCensus holds bench.Experiments to experiments: each entry
// names an EXPERIMENTS.md heading that exists, or the bench-smoke gate
// that runs it; and every -exp in the Makefile and the CI workflow names
// an experiment that exists.
func TestExperimentCensus(t *testing.T) {
	known := map[string]bool{}
	var names []string
	for _, e := range bench.Experiments {
		known[e.Name] = true
		names = append(names, e.Name)
	}
	census(t, "experiment", names, experiments)

	headings := map[string]bool{}
	for _, line := range strings.Split(readFile(t, "EXPERIMENTS.md"), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			headings[h] = true
		}
	}
	makefile := readFile(t, "Makefile")
	expFlag := regexp.MustCompile(`-exp\s+([\w-]+)`)
	gated := map[string]bool{}
	_, recipe, _ := strings.Cut(makefile, "\nbench-smoke:\n")
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	for _, m := range expFlag.FindAllStringSubmatch(recipe, -1) {
		gated[m[1]] = true
	}
	for name, why := range experiments {
		if h, ok := strings.CutPrefix(why, "EXPERIMENTS.md: "); ok {
			if !headings[h] {
				t.Errorf("experiment %s: EXPERIMENTS.md has no section %q", name, h)
			}
		} else if why != "make bench-smoke" {
			t.Errorf("experiment %s: %q is neither an EXPERIMENTS.md section nor make bench-smoke", name, why)
		} else if !gated[name] {
			t.Errorf("experiment %s: make bench-smoke does not run it", name)
		}
	}
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		for _, m := range expFlag.FindAllStringSubmatch(readFile(t, file), -1) {
			if !known[m[1]] {
				t.Errorf("%s runs -exp %s, which bench.Experiments does not have", file, m[1])
			}
		}
	}
}

// TestClusterMethodCensus holds the exported methods of *Cluster to
// clusterMethods, and each entry to a file or test that calls the method.
func TestClusterMethodCensus(t *testing.T) {
	typ := reflect.TypeOf(&frangipani.Cluster{})
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	census(t, "Cluster method", got, clusterMethods)
	for m, why := range clusterMethods {
		if !strings.Contains(why, ".go") && !strings.HasPrefix(why, "§") {
			t.Errorf("Cluster.%s: %q names no non-test caller and no paper section", m, why)
		}
		checkRefs(t, "Cluster."+m, why, "."+m+"(")
	}
}

// checkRefs requires why to name at least one file or root test, and
// every file and test it names to exist and contain call.
func checkRefs(t *testing.T, subject, why, call string) {
	t.Helper()
	refs := 0
	for _, word := range strings.FieldsFunc(why, func(r rune) bool { return r == ' ' || r == ',' || r == ':' }) {
		var src string
		switch {
		case strings.HasSuffix(word, ".go"):
			src = readFile(t, word)
		case strings.HasPrefix(word, "Test"):
			src = rootTestDefining(t, word)
		default:
			continue
		}
		refs++
		if !strings.Contains(src, call) {
			t.Errorf("%s: %s does not contain %s", subject, word, call)
		}
	}
	if refs == 0 {
		t.Errorf("%s: %q names no file or test", subject, why)
	}
}

// rootTestDefining returns the root-package test file that defines test.
func rootTestDefining(t *testing.T, test string) string {
	t.Helper()
	for _, path := range goFiles(t, true) {
		if filepath.Dir(path) == "." {
			if src := readFile(t, path); strings.Contains(src, "func "+test+"(t *testing.T)") {
				return src
			}
		}
	}
	t.Errorf("no root test %s", test)
	return ""
}

// goFiles lists the repository's Go files, test files or the rest, but
// none under a dot directory (build outputs) or testdata.
func goFiles(t *testing.T, tests bool) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && strings.HasSuffix(path, "_test.go") == tests {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
	}
	return string(b)
}

func sortedSet(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
