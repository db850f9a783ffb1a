//go:build !linux

package sim

import "time"

// kwait is the timer under the timer goroutine where there is no
// timerfd: a runtime timer, as coarse as the runtime's sleeps are there.
type kwait struct{ timer *time.Timer }

func (k *kwait) open() error {
	k.timer = time.NewTimer(forever)
	return nil
}

// arm sets the timer to expire d from now, replacing whatever it was set
// to.
func (k *kwait) arm(d time.Duration) { k.timer.Reset(d) }

// wait blocks until the timer has expired since the last wait.
func (k *kwait) wait() { <-k.timer.C }

func (k *kwait) close() { k.timer.Stop() }
