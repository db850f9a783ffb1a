// Package sim provides the simulation substrate used throughout the
// Frangipani reproduction: a compressible virtual clock, FIFO-queued
// rate-limited resources (disk arms, network links, CPUs), simulated
// physical disks with sector-atomic failure semantics, a switched
// point-to-point network with partition and fault injection, and an
// NVRAM write buffer.
//
// The paper's testbed (DEC Alphas, 155 Mbit/s ATM, RZ29 SCSI disks,
// PrestoServe NVRAM) is unavailable, so every performance-relevant
// hardware component is modelled here with the published parameters.
// All durations handed to this package are in *simulated* time; the
// clock compresses them onto the wall clock so that a 30-second lease
// period costs a fraction of a second of real time in tests.
package sim

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Time is an instant in simulated time, expressed as a duration since
// the start of the simulation.
type Time time.Duration

// Duration re-exports time.Duration for readability at call sites that
// deal in simulated durations.
type Duration = time.Duration

// Clock maps simulated time onto the wall clock with a compression
// factor. With Compression = 20, one simulated second takes 50 ms of
// real time. A Clock is safe for concurrent use.
//
// Every modelled cost ends in Sleep or SleepUntil, and most of them are
// well under a millisecond, which is what an idle Go runtime rounds
// time.Sleep up to (it waits in its netpoller, whose timeout is in whole
// milliseconds). So the clock takes its waits itself (timer.go): the
// deadline becomes an absolute wall instant once, the sleeper parks on a
// pooled channel, and one goroutine per clock waits on a kernel timer
// that counts in nanoseconds and is kept set to the earliest of them.
// A wake-up through the kernel takes the host tens of microseconds on a
// good day and several times that on a bad one, so the sleeper has
// itself woken a margin ahead of its deadline — learned from how late
// the wake-ups have been coming — and yields the processor until the
// deadline has come: the wait ends at its instant, whatever the host's
// mood. No wait returns before its deadline (EXPERIMENTS.md, "Waits
// that cost what they model"). After and Tick — time-outs and periods,
// tens of milliseconds and up — stay on runtime timers.
type Clock struct {
	compression float64 // simulated seconds per real second
	stopped     atomic.Bool
	tm          timers // owns the wall epoch every deadline is measured from
}

// NewClock returns a clock that runs compression× faster than real
// time. Compression below 1 DILATES time — useful when many
// concurrent simulated machines would otherwise saturate the host
// CPU and pollute wall-derived simulated timings.
func NewClock(compression float64) *Clock {
	if compression <= 0 {
		panic("sim: clock compression must be > 0")
	}
	c := &Clock{compression: compression}
	c.tm.init(time.Now())
	return c
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.simAt(c.tm.now()) }

// simAt is the simulated instant at wall time since the clock started.
func (c *Clock) simAt(wall time.Duration) Time { return Time(float64(wall) * c.compression) }

// Sleep blocks the calling goroutine for d of simulated time.
func (c *Clock) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	c.SleepUntil(c.Now() + Time(d))
}

// SleepUntil blocks until the simulated clock reads at least t. It
// allocates nothing.
func (c *Clock) SleepUntil(t Time) {
	// The first wall instant at which Now() reads t or later; the loop
	// absorbs the rounding of the division.
	at := time.Duration(math.Ceil(float64(t) / c.compression))
	for c.simAt(at) < t {
		at++
	}
	c.tm.waitUntil(at)
}

// Stop marks the clock stopped. Tickers started from this clock exit
// at their next wakeup. Nobody asleep is stranded: every pending wait
// still ends at its deadline, after which the timer goroutine and its
// descriptor are gone; a Sleep that starts later takes its time on a
// runtime timer. A clock that has been slept on and is never stopped
// keeps both.
func (c *Clock) Stop() {
	c.stopped.Store(true)
	c.tm.stop()
}

// Tick calls fn every period of simulated time until either the clock
// is stopped or the returned cancel function is invoked. fn runs on a
// dedicated goroutine; overlapping invocations never occur.
func (c *Clock) Tick(period Duration, fn func()) (cancel func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(c.Real(period))
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if c.stopped.Load() {
					return
				}
				fn()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Real is how long d of simulated time takes on the wall clock: what
// to set a runtime timer to.
func (c *Clock) Real(d Duration) time.Duration {
	r := time.Duration(float64(d) / c.compression)
	if r <= 0 && d > 0 {
		r = time.Nanosecond
	}
	return r
}
