package frangipani_test

import (
	"fmt"
	"testing"

	"frangipani/internal/bench"
)

// BenchmarkExperiments runs the experiment table (bench.Experiments),
// one sub-benchmark per entry: `go test -run '^$' -bench
// 'Experiments/table1$'` regenerates Table 1 of the paper's evaluation
// (§9). The measured quantity is simulated time, so b.N iterations
// simply repeat the experiment; the interesting output is the table
// itself, printed whole once per run (b.Log would keep only its first
// ten lines). `go run ./cmd/frangibench` prints the full-size versions;
// these use the Quick sizing.
func BenchmarkExperiments(b *testing.B) {
	o := bench.DefaultOptions()
	o.Quick = true
	o.MaxMachines = 4
	o.PetalServers = 5
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb, err := e.Run(o)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					fmt.Printf("--- %s\n%s\n", b.Name(), tb.Render())
				}
			}
		})
	}
}
