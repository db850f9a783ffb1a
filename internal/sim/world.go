package sim

import (
	"math/rand"
	"sync"

	"frangipani/internal/obs"
)

// World bundles the shared simulation state — clock, network, seeded
// randomness, and per-machine CPUs — that every layer of the stack is
// constructed against. One World is one cluster.
type World struct {
	Clock *Clock
	Net   *Network
	// Obs is the cluster-wide metrics registry and tracer, timed on
	// the simulated clock. Setting it to nil before constructing the
	// stack disables span tracing and latency histograms (counters
	// fall back to standalone collectors) — used by the overhead
	// ablation benchmark.
	Obs *obs.Registry

	mu   sync.Mutex
	rng  *rand.Rand
	cpus map[string]*CPU
}

// NewWorld creates a world with the given clock compression and
// deterministic random seed.
func NewWorld(compression float64, seed int64) *World {
	clock := NewClock(compression)
	return &World{
		Clock: clock,
		Net:   NewNetwork(clock),
		Obs:   obs.NewRegistry(func() int64 { return int64(clock.Now()) }),
		rng:   rand.New(rand.NewSource(seed)),
		cpus:  make(map[string]*CPU),
	}
}

// AddMachine registers a machine: a host on the network plus a CPU.
func (w *World) AddMachine(name string, link LinkParams) *CPU {
	w.Net.AddHost(name, link)
	cpu := NewCPU(w.Clock, name+"/cpu")
	w.mu.Lock()
	w.cpus[name] = cpu
	w.mu.Unlock()
	return cpu
}

// CPU returns the CPU of a machine, creating the machine with default
// link parameters if it does not exist yet.
func (w *World) CPU(name string) *CPU {
	w.mu.Lock()
	cpu, ok := w.cpus[name]
	w.mu.Unlock()
	if ok {
		return cpu
	}
	return w.AddMachine(name, DefaultLinkParams())
}

// Rand returns a deterministic pseudo-random int63 from the world's
// seeded source.
func (w *World) Rand() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rng.Int63()
}

// RandIntn returns a deterministic pseudo-random int in [0, n).
func (w *World) RandIntn(n int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rng.Intn(n)
}

// Stop halts the clock, which winds down tickers across the stack, and
// ends the network's delivery workers once their pairs are drained.
func (w *World) Stop() {
	w.Clock.Stop()
	w.Net.stop()
}
