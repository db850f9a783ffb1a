package petal

import (
	"sync"

	"frangipani/internal/reuse"
)

// Workers runs fan-outs and background jobs on parked goroutines that
// belong to it: the Petal client, the Petal server and the file system
// each own one. A fan-out hands its helpers, and Go its job, to the
// workers (reuse.Workers), so they are as many as the helpers and jobs
// ever busy at once, not one goroutine per index or job. Close ends the
// parked ones and lets the busy ones end when their fan-out or job is
// done. The zero value is ready to use.
type Workers struct{ reuse.Workers[task] }

// Job is a background job for Go: its state is whatever Run is a method
// of, so handing it over allocates nothing.
type Job interface{ Run() }

// task is what a worker is handed: a fan-out to help with, or a job.
type task struct {
	fo  *FanOut
	job Job
}

// Run does t: the indices of its fan-out nobody has taken, or its job.
func (t task) Run() {
	if t.fo == nil {
		t.job.Run()
		return
	}
	t.fo.drain()
	t.fo.wg.Done() // fo is its caller's again from here
}

// FanOut is what the goroutines of one fan-out share. It lives in the
// caller's scratch and serves one Run at a time.
type FanOut struct {
	f      func(int) error
	mu     sync.Mutex
	next   int // the next index a participant takes
	n      int // the indices the participants share: [0, n)
	wg     sync.WaitGroup
	err    error // of index failed, the lowest that has failed
	failed int
}

// Run runs f(0..n-1) with at most limit in flight and returns the error
// of the lowest index that failed; every index runs regardless of
// failures. The caller's goroutine takes part, counted in the limit: it
// runs the last index while the helpers start on the first ones, and
// then takes whatever index is left, as they do. With one index, or a
// limit of one, the caller runs them all, in order. fo is the fan-out's
// shared state, from the caller's scratch.
func (w *Workers) Run(fo *FanOut, limit, n int, f func(int) error) error {
	if limit <= 1 || n <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := f(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	fo.f, fo.next, fo.n, fo.err, fo.failed = f, 0, n-1, nil, n
	helpers := min(limit, n) - 1
	fo.wg.Add(helpers)
	for k := 0; k < helpers; k++ {
		w.Workers.Go(task{fo: fo})
	}
	fo.run(n - 1)
	fo.drain()
	fo.wg.Wait()
	err := fo.err
	fo.f, fo.err = nil, nil
	return err
}

// Go runs j on a parked worker, or on a new one if none is parked, and
// returns at once; nobody waits for it but whoever j's own state tells. A
// job started after Close still runs, on a worker that then ends.
func (w *Workers) Go(j Job) { w.Workers.Go(task{job: j}) }

// drain runs the indices nobody has taken until none is left.
func (fo *FanOut) drain() {
	for {
		fo.mu.Lock()
		i := fo.next
		if i >= fo.n {
			fo.mu.Unlock()
			return
		}
		fo.next++
		fo.mu.Unlock()
		fo.run(i)
	}
}

func (fo *FanOut) run(i int) {
	if err := fo.f(i); err != nil {
		fo.mu.Lock()
		if i < fo.failed {
			fo.failed, fo.err = i, err
		}
		fo.mu.Unlock()
	}
}
