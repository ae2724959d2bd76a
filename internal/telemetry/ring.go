package telemetry

// Ring is a bounded ring, oldest value first: all[start:] of an array. No
// value a window holds is ever rewritten, so readers take windows of the
// ring rather than copies, and a window never changes. Every value pushed
// has an ordinal, counted from base, the ordinal of all[0]; the tracer's
// ordinals are its events' Seqs. The zero Ring is empty. A Ring does no
// locking of its own.
type Ring[T any] struct {
	all   []T
	base  uint64
	start int
	lent  bool // a window of all may be held outside the ring
}

// Push appends v, keeping the newest bound values. The array grows by
// doubling, from 256 to at most twice the bound. A full array that cannot
// grow moves the values kept to its front, unless a window of it was handed
// out: then they move to a fresh array. So a ring costs what it holds while
// it fills, and once full each value moves at most once per bound pushed.
func (r *Ring[T]) Push(bound int, v T) {
	if n := len(r.all); n == cap(r.all) {
		keep, all := min(n-r.start, bound-1), r.all[:0]
		if size := min(max(2*n, 256), 2*bound); size > n || r.lent {
			all = make([]T, 0, size)
		}
		r.base += uint64(n - keep)
		r.all, r.start, r.lent = append(all, r.all[n-keep:]...), 0, false
	}
	n := len(r.all)
	r.all = r.all[:n+1]
	r.all[n] = v
	r.start = max(r.start, n+1-bound)
}

// Window returns the ring's values: capped at their end, so appending to it
// cannot reach the ring, and nil when the ring is empty. Callers must not
// write to it.
func (r *Ring[T]) Window() []T {
	if r.start == len(r.all) {
		return nil
	}
	r.lent = true
	return r.all[r.start:len(r.all):len(r.all)]
}

// Replace makes vs the ring's values, numbered after the values it held.
func (r *Ring[T]) Replace(vs []T) {
	r.base += uint64(len(r.all))
	r.all, r.start, r.lent = vs, 0, true
}

// Track makes the ring the newest bound values of w, the window of a source
// log or ring that ends at ordinal end, unless the ring already reaches past
// end (a later read got there first). The ring then shares w's array.
func (r *Ring[T]) Track(bound int, w []T, end uint64) {
	if w = w[max(0, len(w)-bound):]; end >= r.End() {
		*r = Ring[T]{all: w, base: end - uint64(len(w)), lent: true}
	}
}

// Extend is Track for a source whose arrays no window should keep alive:
// the ring copies in the values of w it lacks.
func (r *Ring[T]) Extend(bound int, w []T, end uint64) {
	if end < r.End() {
		return
	}
	w = w[max(0, len(w)-bound):]
	if first := end - uint64(len(w)); first > r.End() {
		*r = Ring[T]{base: first}
	}
	for _, v := range w[len(w)-int(end-r.End()):] {
		r.Push(bound, v)
	}
	r.start = max(r.start, len(r.all)-len(w))
}

// First returns the ordinal of the ring's oldest value, and End the ordinal
// past its newest.
func (r *Ring[T]) First() uint64 { return r.base + uint64(r.start) }
func (r *Ring[T]) End() uint64   { return r.base + uint64(len(r.all)) }
