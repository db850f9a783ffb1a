package sim

import (
	"sync"
)

// Resource models a serially-reusable hardware component — a disk arm,
// one direction of a network link, a CPU — as a FIFO queue in virtual
// time. Each use occupies the resource for a caller-computed service
// time; concurrent callers are serialized, which is what produces
// saturation behaviour (the flat top of the paper's Figures 6 and 7)
// without any explicit queue data structure: the resource tracks the
// virtual time at which it next becomes free.
type Resource struct {
	clock *Clock
	name  string

	mu    sync.Mutex
	free  Time // virtual time at which the resource is next idle
	busy  Duration
	uses  int64
	since Time // start of the current accounting window
}

// NewResource returns an idle resource on the given clock. name is
// used only for diagnostics.
func NewResource(clock *Clock, name string) *Resource {
	return &Resource{clock: clock, name: name, since: clock.Now()}
}

// Use occupies the resource for cost of simulated time and blocks the
// caller until its service completes. It returns the virtual time at
// which service finished. The caller is held until that instant and
// never let go before it: a Use that returned early and kept the
// difference as a debt on the resource would let a thread that goes on
// to charge a second resource overlap two costs that are serial.
func (r *Resource) Use(cost Duration) Time {
	end := r.reserve(cost)
	r.clock.SleepUntil(end)
	return end
}

// reserve queues a use of cost behind whatever the resource already has
// to do and returns the virtual time at which it will complete, without
// waiting for it. Whoever reserves owes the wait: it must not act on the
// completion before that instant.
func (r *Resource) reserve(cost Duration) Time {
	if cost < 0 {
		cost = 0
	}
	now := r.clock.Now()
	r.mu.Lock()
	start := r.free
	if now > start {
		start = now
	}
	end := start + Time(cost)
	r.free = end
	r.busy += cost
	r.uses++
	r.mu.Unlock()
	return end
}

// Utilization reports the fraction of virtual time this resource has
// been busy since the last call to ResetStats (or creation), along
// with the number of uses.
func (r *Resource) Utilization() (frac float64, uses int64) {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	window := Duration(now - r.since)
	if window <= 0 {
		return 0, r.uses
	}
	f := float64(r.busy) / float64(window)
	if f > 1 {
		f = 1
	}
	return f, r.uses
}

// BusyTime reports the accumulated busy time since the last reset.
func (r *Resource) BusyTime() Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// ResetStats zeroes the utilization accounting window.
func (r *Resource) ResetStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.busy = 0
	r.uses = 0
	r.since = r.clock.Now()
}

// CPU models a machine's processor as a Resource plus convenience
// accounting in "CPU seconds". Operations charge a cost; utilization
// is CPU-busy virtual time over elapsed virtual time, matching the
// CPU-utilization columns in the paper's Table 3.
type CPU struct {
	res *Resource
}

// NewCPU returns a CPU on the given clock.
func NewCPU(clock *Clock, name string) *CPU {
	return &CPU{res: NewResource(clock, name)}
}

// Use charges d of CPU time, blocking through the queue.
func (c *CPU) Use(d Duration) { c.res.Use(d) }

// Utilization reports the busy fraction since the last reset.
func (c *CPU) Utilization() float64 {
	f, _ := c.res.Utilization()
	return f
}

// BusyTime reports accumulated CPU-busy time since the last reset.
func (c *CPU) BusyTime() Duration { return c.res.BusyTime() }

// ResetStats zeroes the accounting window.
func (c *CPU) ResetStats() { c.res.ResetStats() }
