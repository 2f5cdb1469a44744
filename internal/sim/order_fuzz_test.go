package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
)

// refEngine is the container/heap event queue Engine replaced, kept as the
// reference its typed heap and lanes must agree with event for event. A lane
// event is an ordinary After on it, so its one heap holds every event.
type refEngine struct {
	h      refHeap
	now    float64
	seq    uint64
	events uint64
}

type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return it
}

func (e *refEngine) Now() float64  { return e.now }
func (e *refEngine) fired() uint64 { return e.events }
func (e *refEngine) queued() int   { return len(e.h) }

func (e *refEngine) NextAt() (float64, bool) {
	if len(e.h) == 0 {
		return 0, false
	}
	return e.h[0].at, true
}

func (e *refEngine) At(t float64, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	heap.Push(&e.h, event{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) After(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

func (e *refEngine) lane(delay float64) func(fn func()) {
	return func(fn func()) { e.After(delay, fn) }
}

func (e *refEngine) Run(until float64) {
	for len(e.h) > 0 {
		if e.h[0].at > until {
			break
		}
		ev := heap.Pop(&e.h).(event)
		e.now = ev.at
		e.events++
		ev.fn()
	}
	if until > e.now {
		e.now = until
	}
}

func (e *refEngine) RunAll() {
	for len(e.h) > 0 {
		ev := heap.Pop(&e.h).(event)
		e.now = ev.at
		e.events++
		ev.fn()
	}
}

// scheduler is the method set the script drives on both engines. lane
// returns the scheduling function of the lane for delay.
type scheduler interface {
	At(t float64, fn func())
	After(delay float64, fn func())
	lane(delay float64) func(fn func())
	Run(until float64)
	RunAll()
	Now() float64
	fired() uint64
	queued() int
	NextAt() (float64, bool)
}

// laneEngine drives Engine's lanes and checks that NewLane hands out one lane
// per distinct delay, a negative delay counting as zero.
type laneEngine struct {
	*Engine
	t     *testing.T
	lanes map[float64]*Lane
}

func (e laneEngine) lane(delay float64) func(fn func()) {
	l, key := e.NewLane(delay), max(delay, 0)
	if prev, ok := e.lanes[key]; ok && prev != l {
		e.t.Fatalf("NewLane(%g) returned a second lane for one delay", delay)
	}
	for d, other := range e.lanes {
		if other == l && d != key {
			e.t.Fatalf("NewLane(%g) returned the lane of delay %g", delay, d)
		}
	}
	e.lanes[key] = l
	return l.After
}

// step is one observable moment of a played script: an event firing, the
// state after a Run, RunAll or the final drain, a rejected past-time At, a
// NextAt peek, or a peek the engine then broke.
type step struct {
	kind    byte // 'f' fire, 'r' Run, 'a' RunAll, 'd' drain, 'p' past At, 'n' peek, 'x' broken peek
	id      int  // the fired event, in scheduling order
	now     float64
	pending int
	events  uint64
	panic   any
}

// play interprets script against e and logs every observable step. Offsets
// and lane delays are multiples of a quarter second drawn from a few values,
// so exact-time ties between heap and lane events are dense. Fired events
// read the script too, so an event fired out of order changes everything that
// follows; they also schedule onto lanes and open new lanes mid-run. At most
// maxEvents events are ever scheduled. A peek reads NextAt, which must report
// a pending event exactly when one is queued, and whose time the next event
// to fire must carry unless something is scheduled first.
func play(script []byte, e scheduler) []step {
	const maxEvents = 1000
	var log []step
	pos, scheduled := 0, 0
	peeking, peekAt := false, 0.0
	next := func() (byte, bool) {
		if pos >= len(script) {
			return 0, false
		}
		pos++
		return script[pos-1], true
	}
	offset := func(b byte) float64 { return float64(b%5) * 0.25 }
	// Six lane delays from -0.25 to 1: the negative one shares delay 0's lane.
	laneDelay := func(b byte) float64 { return float64(b%6)*0.25 - 0.25 }
	var lanes []func(fn func())
	var schedule func(abs bool, off float64)
	var onLane func(k int)
	fire := func(id int) func() {
		return func() {
			if peeking && e.Now() != peekAt {
				log = append(log, step{kind: 'x', id: id, now: e.Now()})
			}
			peeking = false
			log = append(log, step{kind: 'f', id: id, now: e.Now()})
			b, ok := next()
			if !ok {
				return
			}
			switch b % 8 {
			case 0, 1: // a child at an offset
				schedule(b%2 == 0, offset(b>>3))
			case 2: // two children at the same instant
				schedule(false, offset(b>>3))
				schedule(true, offset(b>>3))
			case 4: // a child on an open lane
				onLane(int(b >> 3))
			case 5: // a lane opened mid-run, and a child on it
				lanes = append(lanes, e.lane(laneDelay(b>>3)))
				onLane(len(lanes) - 1)
			}
		}
	}
	schedule = func(abs bool, off float64) {
		if scheduled >= maxEvents {
			return
		}
		scheduled++
		peeking = false
		if abs {
			e.At(e.Now()+off, fire(scheduled))
		} else {
			e.After(off, fire(scheduled))
		}
	}
	onLane = func(k int) {
		if len(lanes) == 0 || scheduled >= maxEvents {
			return
		}
		scheduled++
		peeking = false
		lanes[k%len(lanes)](fire(scheduled))
	}
	report := func(kind byte) {
		log = append(log, step{kind: kind, now: e.Now(), pending: e.queued(), events: e.fired()})
	}
	for {
		b, ok := next()
		if !ok {
			break
		}
		arg, _ := next()
		switch b % 10 {
		case 0, 1:
			schedule(true, offset(arg))
		case 2:
			schedule(false, offset(arg)-0.25) // a negative delay clamps to now
		case 3:
			for i := 0; i <= int(arg%4); i++ {
				schedule(true, offset(arg))
			}
		case 4:
			e.Run(e.Now() + offset(arg))
			report('r')
		case 5:
			e.RunAll()
			report('a')
		case 6:
			if e.Now() > 0 {
				func() {
					defer func() { log = append(log, step{kind: 'p', now: e.Now(), panic: recover()}) }()
					e.At(e.Now()-0.25, func() {})
				}()
			}
		case 7:
			lanes = append(lanes, e.lane(laneDelay(arg)))
		case 8:
			for i := 0; i <= int(arg>>4)%3; i++ { // one to three, for ties within a lane
				onLane(int(arg))
			}
		case 9:
			at, ok := e.NextAt()
			log = append(log, step{kind: 'n', now: at, pending: e.queued()})
			if ok != (e.queued() > 0) {
				log = append(log, step{kind: 'x', now: at, pending: e.queued()})
			}
			peeking, peekAt = ok, at
		}
	}
	e.RunAll()
	report('d')
	return log
}

// FuzzEventOrder plays byte-scripted schedules through Engine, heap and
// lanes, and through the container/heap reference, and requires the same
// firing order, clock and queue state at every step.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0})                    // six events at t=0
	f.Add([]byte{3, 3, 3, 3, 3, 7, 4, 2, 3, 3, 4, 1, 5, 0, 6, 0, 2, 0, 5, 0})  // tie bursts, Run, past At
	f.Add([]byte{0, 3, 1, 3, 4, 3, 0, 3, 4, 0, 4, 4, 2, 9, 5, 0, 3, 3, 5, 0})  // Run(until) on tie times
	f.Add([]byte{7, 0, 7, 1, 8, 0, 8, 0, 2, 1, 5, 0})                          // lanes for -0.25 and 0: one lane
	f.Add([]byte{7, 2, 0, 1, 8, 32, 3, 1, 8, 0, 4, 1, 7, 3, 8, 1, 4, 0, 5, 0}) // lane and heap events tied at 0.25
	f.Add([]byte{7, 4, 8, 0, 8, 0, 0, 0, 4, 0, 4, 2, 8, 17, 4, 4, 5, 0})       // Run(until) short of queued lane events
	f.Add([]byte{7, 2, 0, 0, 8, 0, 4, 1, 0, 4, 0, 37, 0, 45, 5, 0})            // fired events open lanes
	f.Add([]byte{9, 0, 7, 2, 0, 3, 8, 0, 9, 0, 4, 4, 9, 0, 5, 0, 9, 0})        // peeks at heap and lane heads, and at nothing
	for i := 0; i < 16; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		script := make([]byte, 32+24*i)
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		got := play(script, laneEngine{Engine: &Engine{}, t: t, lanes: map[float64]*Lane{}})
		want := play(script, &refEngine{})
		if !reflect.DeepEqual(got, want) {
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("step %d: Engine %+v, container/heap %+v", i, got[i], want[i])
				}
			}
			t.Fatalf("Engine logged %d steps, container/heap %d", len(got), len(want))
		}
	})
}
