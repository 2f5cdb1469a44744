// Package sim is a minimal discrete-event simulation engine: a virtual
// clock and a binary-heap event queue. It is the substrate under
// internal/cluster, standing in for the paper's real 20-GPU testbed — the
// paper itself runs its parameter sweeps on a discrete-event simulator
// extended from Proteus (§6.1), so this substrate reproduces the published
// methodology, not just approximates it.
package sim

// Event is a scheduled callback.
type event struct {
	at  float64
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

// before orders events by time, then by scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine runs events in virtual-time order. Time is in seconds. The zero
// value is ready to use.
//
// The queue is a binary min-heap on a plain []event, sifted with the same
// comparisons container/heap makes, so events are stored and fired exactly
// as a container/heap queue would, without boxing each one in an interface.
type Engine struct {
	h       []event
	now     float64
	seq     uint64
	stopped bool
	events  uint64 // executed events, for instrumentation
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.events }

// At schedules fn at absolute virtual time t. Scheduling in the past is a
// programming error and panics, because it would silently corrupt causality.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn delay seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue empties or the next event
// lies strictly beyond until. The clock finishes at min(until, last event
// time); it never runs backwards.
func (e *Engine) Run(until float64) {
	e.stopped = false
	for len(e.h) > 0 && !e.stopped {
		if e.h[0].at > until {
			break
		}
		e.fire()
	}
	if until > e.now {
		e.now = until
	}
}

// RunAll executes every pending event (including ones scheduled while
// running) until the queue is empty.
func (e *Engine) RunAll() {
	e.stopped = false
	for len(e.h) > 0 && !e.stopped {
		e.fire()
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.h) }

// fire pops the earliest event, advances the clock to it and runs it.
func (e *Engine) fire() {
	ev := e.pop()
	e.now = ev.at
	e.events++
	ev.fn()
}

// push appends ev and sifts it up past every parent it precedes.
func (e *Engine) push(ev event) {
	h := append(e.h, ev)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !ev.before(&h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = ev
	e.h = h
}

// pop removes the root and sifts the last event down from the root, taking
// the right child only when it strictly precedes the left.
func (e *Engine) pop() event {
	h := e.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the callback reference
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			j := 2*i + 1
			if j >= n {
				break
			}
			if r := j + 1; r < n && h[r].before(&h[j]) {
				j = r
			}
			if !h[j].before(&last) {
				break
			}
			h[i] = h[j]
			i = j
		}
		h[i] = last
	}
	e.h = h
	return top
}
