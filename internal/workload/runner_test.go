package workload

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frangipani/internal/sim"
)

// TestRunnerCountsOnlyOpsInsideTheWindow: two loops whose operations
// sleep 100 ms and 300 ms, a warm-up that opens the window in the
// middle of an operation and a window that closes in the middle of
// another. The runner counts exactly the operations that started and
// ended inside the window, as the operations themselves recorded them,
// with their latencies sorted, and no loop runs after Stop.
func TestRunnerCountsOnlyOpsInsideTheWindow(t *testing.T) {
	w := sim.NewWorld(10, 1)
	defer w.Stop()
	type span struct{ start, end sim.Time }
	var (
		mu    sync.Mutex
		spans [2][]span
		calls atomic.Int64
	)
	run := NewRunner(w.Clock, 2)
	for g, d := range []time.Duration{100 * time.Millisecond, 300 * time.Millisecond} {
		run.Go(g, func() (int64, error) {
			calls.Add(1)
			s := span{start: w.Clock.Now()}
			w.Clock.Sleep(d)
			s.end = w.Clock.Now()
			mu.Lock()
			spans[g] = append(spans[g], s)
			mu.Unlock()
			return int64(g + 1), nil
		}, func() { calls.Add(1) })
	}
	w.Clock.Sleep(50 * time.Millisecond)
	from := w.Clock.Now()
	run.Measure(time.Second)
	to := w.Clock.Now()
	res, err := run.Stop()
	if err != nil {
		t.Fatal(err)
	}
	after := calls.Load()
	w.Clock.Sleep(400 * time.Millisecond)
	if calls.Load() != after {
		t.Fatalf("a loop ran on after Stop returned: %d calls, then %d", after, calls.Load())
	}
	if len(res) != 2 {
		t.Fatalf("%d groups, want 2", len(res))
	}
	for g, r := range res {
		var inside int64
		for _, s := range spans[g] {
			if s.start >= from && s.end <= to {
				inside++
			}
		}
		if r.Ops == 0 || r.Ops != inside || r.Ops == int64(len(spans[g])) {
			t.Errorf("group %d counted %d ops; %d of its %d started and ended inside the window", g, r.Ops, inside, len(spans[g]))
		}
		if r.Bytes != r.Ops*int64(g+1) || int64(len(r.Lats)) != r.Ops {
			t.Errorf("group %d: %d ops, %d bytes, %d latencies", g, r.Ops, r.Bytes, len(r.Lats))
		}
		if !sort.SliceIsSorted(r.Lats, func(a, b int) bool { return r.Lats[a] < r.Lats[b] }) {
			t.Errorf("group %d latencies not sorted: %v", g, r.Lats)
		}
		if r.Elapsed < time.Second || r.Elapsed > sim.Duration(to-from) {
			t.Errorf("group %d window %v, want 1s..%v", g, r.Elapsed, sim.Duration(to-from))
		}
	}
}

// TestRunnerStopReturnsTheFirstError: of two loops that fail, the one
// that failed first is the error Stop returns, and Stop returns only
// once both loops have.
func TestRunnerStopReturnsTheFirstError(t *testing.T) {
	w := sim.NewWorld(10, 1)
	defer w.Stop()
	first, second := errors.New("first"), errors.New("second")
	var running atomic.Int64
	run := NewRunner(w.Clock, 1)
	for _, l := range []struct {
		every  time.Duration
		failAt int
		err    error
	}{{100 * time.Millisecond, 3, first}, {400 * time.Millisecond, 2, second}} {
		n := 0
		run.Go(0, func() (int64, error) {
			running.Add(1)
			defer running.Add(-1)
			w.Clock.Sleep(l.every)
			if n++; n == l.failAt {
				return 0, l.err
			}
			return 1, nil
		}, nil)
	}
	run.Measure(time.Second)
	if _, err := run.Stop(); err != first {
		t.Fatalf("Stop returned %v, want %v", err, first)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d operations still running after Stop", n)
	}
}
