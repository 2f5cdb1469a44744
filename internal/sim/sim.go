// Package sim is a minimal discrete-event simulation engine: a virtual
// clock, a binary-heap event queue and fixed-delay FIFO lanes beside it. It is the substrate under
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
// value is ready to use; an Engine must not be copied once it has a Lane.
//
// The queue is a binary min-heap on a plain []event, sifted with the same
// comparisons container/heap makes, so events are stored and fired exactly
// as a container/heap queue would, without boxing each one in an interface.
// Beside it sit the lanes: FIFOs of events scheduled a fixed delay ahead,
// which are sorted by construction and so need no sifting. The next event is
// the earliest of the heap's top and the lanes' heads, so events fire in the
// one order a single heap holding all of them would fire them in.
type Engine struct {
	h       []event
	lanes   []*Lane
	now     float64
	seq     uint64
	stopped bool
	events  uint64 // executed events, for instrumentation
}

// Lane is the engine's FIFO for events that fire a fixed delay after they
// are scheduled, such as network hops. While the clock moves forward each
// event lands at or after the one before it, so the lane is sorted by (time,
// scheduling order) without a heap push.
type Lane struct {
	e     *Engine
	delay float64
	buf   []event // ring buffer; its length is zero or a power of two
	head  int
	n     int
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

// NewLane returns the engine's lane for delay; a negative delay means zero,
// as for After. There is one lane per distinct delay, so callers asking for
// the same delay share it.
func (e *Engine) NewLane(delay float64) *Lane {
	if delay < 0 {
		delay = 0
	}
	for _, l := range e.lanes {
		if l.delay == delay {
			return l
		}
	}
	l := &Lane{e: e, delay: delay}
	e.lanes = append(e.lanes, l)
	return l
}

// After schedules fn the lane's delay from now. It fires exactly when
// Engine.After with that delay would have fired it.
func (l *Lane) After(fn func()) {
	e := l.e
	e.seq++
	ev := event{at: e.now + l.delay, seq: e.seq, fn: fn}
	if l.n > 0 && ev.at < l.buf[(l.head+l.n-1)&(len(l.buf)-1)].at {
		// The clock fell back: a Run ended by Stop set it to its horizon and
		// a later event before the horizon fired since. Keep the lane sorted.
		e.push(ev)
		return
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

// grow doubles the ring, unwrapping it so the head sits at index 0.
func (l *Lane) grow() {
	buf := make([]event, max(16, 2*len(l.buf)))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// pop removes and returns the lane's head.
func (l *Lane) pop() event {
	ev := l.buf[l.head]
	l.buf[l.head] = event{} // drop the callback reference
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return ev
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue empties, Stop is called, or
// the next event lies strictly beyond until. The clock then reads until
// unless it already read later. That holds when Stop ended the run with
// earlier events still pending too, and firing those moves the clock back.
func (e *Engine) Run(until float64) {
	e.stopped = false
	for !e.stopped {
		ev, from := e.next()
		if ev == nil || ev.at > until {
			break
		}
		e.fire(from)
	}
	if until > e.now {
		e.now = until
	}
}

// RunAll executes every pending event (including ones scheduled while
// running) until the queue is empty.
func (e *Engine) RunAll() {
	e.stopped = false
	for !e.stopped {
		ev, from := e.next()
		if ev == nil {
			break
		}
		e.fire(from)
	}
}

// Pending returns the number of queued events, in the heap and the lanes.
func (e *Engine) Pending() int {
	n := len(e.h)
	for _, l := range e.lanes {
		n += l.n
	}
	return n
}

// NextAt returns the time of the earliest pending event, in the heap or a
// lane, and false when nothing is pending. It is the event Run fires next.
func (e *Engine) NextAt() (float64, bool) {
	ev, _ := e.next()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// next returns the earliest pending event and the lane it waits in, nil for
// the heap. The event is nil when nothing is pending.
func (e *Engine) next() (*event, *Lane) {
	var ev *event
	if len(e.h) > 0 {
		ev = &e.h[0]
	}
	var from *Lane
	for _, l := range e.lanes {
		if l.n > 0 {
			if head := &l.buf[l.head]; ev == nil || head.before(ev) {
				ev, from = head, l
			}
		}
	}
	return ev, from
}

// fire removes the earliest event from where next found it, advances the
// clock to it and runs it.
func (e *Engine) fire(from *Lane) {
	var ev event
	if from != nil {
		ev = from.pop()
	} else {
		ev = e.pop()
	}
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
