package workload

import (
	"sort"
	"sync"
	"sync/atomic"

	"frangipani/internal/sim"
)

// Op runs one operation of a closed loop and returns the bytes it
// moved.
type Op func() (int64, error)

// Result is what one group of a Runner's loops did inside the measured
// window.
type Result struct {
	Ops     int64
	Bytes   int64
	Lats    []sim.Duration // one per counted operation, sorted
	Elapsed sim.Duration   // the measured window
}

// Pct returns the p-th percentile latency, or 0 if nothing counted.
func (g Result) Pct(p int) sim.Duration {
	if len(g.Lats) == 0 {
		return 0
	}
	return g.Lats[len(g.Lats)*p/100]
}

// PerSec returns the counted operations per simulated second.
func (g Result) PerSec() float64 {
	if g.Elapsed <= 0 {
		return 0
	}
	return float64(g.Ops) / g.Elapsed.Seconds()
}

// MBps returns the counted bytes per simulated second, in MB/s.
func (g Result) MBps() float64 {
	if g.Elapsed <= 0 {
		return 0
	}
	return float64(g.Bytes) / (1 << 20) / g.Elapsed.Seconds()
}

// Runner drives closed loops on the simulated clock: a loop runs its
// operation again as soon as the last one returned, until Stop or its
// first error. An operation counts only if it started and finished
// inside the window Measure held open. Warm-up is the caller's: it
// sleeps before Measure, and reads its own counters around it.
type Runner struct {
	clock              *sim.Clock
	measuring, stopped atomic.Bool
	wg                 sync.WaitGroup
	mu                 sync.Mutex
	groups             []Result
	elapsed            sim.Duration
	err                error
}

// NewRunner returns a Runner on clock, with no loops yet, whose loops
// fall into groups numbered 0 to groups-1.
func NewRunner(clock *sim.Clock, groups int) *Runner {
	return &Runner{clock: clock, groups: make([]Result, groups)}
}

// Go starts a loop of group that runs op over and over. then, if set,
// runs after each op returned without error, outside its timing: a
// think time, or the release of what op took.
func (r *Runner) Go(group int, op Op, then func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		var got Result
		var err error
		for !r.stopped.Load() {
			counted := r.measuring.Load()
			t0 := r.clock.Now()
			var n int64
			if n, err = op(); err != nil {
				break
			}
			if counted && r.measuring.Load() {
				got.Ops++
				got.Bytes += n
				got.Lats = append(got.Lats, sim.Duration(r.clock.Now()-t0))
			}
			if then != nil {
				then()
			}
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		g := &r.groups[group]
		g.Ops += got.Ops
		g.Bytes += got.Bytes
		g.Lats = append(g.Lats, got.Lats...)
		if r.err == nil {
			r.err = err
		}
	}()
}

// Measure opens the measured window, sleeps window on the simulated
// clock, and closes it.
func (r *Runner) Measure(window sim.Duration) {
	r.measuring.Store(true)
	t0 := r.clock.Now()
	r.clock.Sleep(window)
	r.measuring.Store(false)
	r.elapsed = sim.Duration(r.clock.Now() - t0)
}

// Stop ends every loop, waits until all have returned, and returns each
// group's Result, indexed by group, with the first error a loop met.
func (r *Runner) Stop() ([]Result, error) {
	r.stopped.Store(true)
	r.wg.Wait()
	for i := range r.groups {
		g := &r.groups[i]
		sort.Slice(g.Lats, func(a, b int) bool { return g.Lats[a] < g.Lats[b] })
		g.Elapsed = r.elapsed
	}
	return r.groups, r.err
}

// Each runs fn(0) … fn(n-1) at once and waits for all of them; the first
// error wins.
func Each(n int, fn func(i int) error) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- fn(i) }(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
