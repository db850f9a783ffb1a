// Package reuse is the one way this repository reuses what it would
// otherwise make again: a List of objects to take again, and a set of
// parked goroutines, Workers, to hand work to. Neither is ever a
// package-level variable: each belongs to the object that uses it — a
// file server, a gate, an endpoint, a card, a clerk — and ends with it,
// so nothing pooled or parked is shared between two objects, or between
// two clusters of one process.
package reuse

import "sync"

// List is a free list: Take hands out what Put gave back, the last one
// first. It locks itself, and keeps what it is given until it is taken:
// its length is at most the most its user ever gave back at once, the
// user's high-water mark. The zero value is an empty list.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Take returns the object last put back, and true; or, if the list is
// empty, the zero T and false.
func (l *List[T]) Take() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.items); n > 0 {
		var zero T // the list holds nothing of what it hands out
		x, l.items[n-1], l.items, ok = l.items[n-1], zero, l.items[:n-1], true
	}
	return x, ok
}

// Put gives x back, for a later Take. It allocates only when the list is
// longer than it has ever been.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}

// Len returns how many objects the list holds.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Workers runs what it is handed on goroutines that belong to it. Go
// hands a T, by value, to a worker parked in idle, or to a new one if
// none is parked; a worker that has run it parks again, so the workers
// are as many as were ever busy at once, not one goroutine per T. Close
// ends the parked ones and lets the busy ones end once they are done. The
// zero value is ready to use.
type Workers[T interface{ Run() }] struct {
	mu     sync.Mutex // orders parking after Close
	idle   List[chan T]
	closed bool
}

// Go runs t.Run on a parked worker, or on a new one, and returns at once;
// nobody waits for it but whoever t's own state tells. A T handed over
// after Close still runs, on a worker that then ends.
func (w *Workers[T]) Go(t T) {
	if park, ok := w.idle.Take(); ok {
		park <- t // one slot, and the worker parked with it empty: never blocks
		return
	}
	go w.work(t)
}

// work is a worker: it runs t, parks, and runs whatever it is handed
// next, until Close.
func (w *Workers[T]) work(t T) {
	park := make(chan T, 1)
	for ok := true; ok; t, ok = <-park {
		t.Run()
		t = *new(T) // hold nothing of it while parked
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return
		}
		w.idle.Put(park)
		w.mu.Unlock()
	}
}

// Close ends the parked workers; a busy one ends once it is done.
func (w *Workers[T]) Close() {
	w.mu.Lock()
	w.closed = true
	for park, ok := w.idle.Take(); ok; park, ok = w.idle.Take() {
		close(park)
	}
	w.mu.Unlock()
}

// Parked returns how many workers are parked.
func (w *Workers[T]) Parked() int { return w.idle.Len() }
