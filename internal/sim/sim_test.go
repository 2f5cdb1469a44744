package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunAll()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %g, want 5", e.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	var e Engine
	fired := 0
	e.At(1, func() { fired++ })
	e.At(10, func() { fired++ })
	e.Run(5)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %g, want horizon 5", e.Now())
	}
	if e.queued() != 1 {
		t.Fatalf("pending = %d, want 1", e.queued())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var e Engine
	var at float64
	e.At(2, func() {
		e.After(3, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 5 {
		t.Fatalf("nested event at %g, want 5", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.At(10, func() {})
	e.Run(100)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on past scheduling")
		}
	}()
	e.At(1, func() {})
}

func TestEventsDuringRunAreExecuted(t *testing.T) {
	var e Engine
	count := 0
	var chainFn func()
	chainFn = func() {
		count++
		if count < 100 {
			e.After(0.5, chainFn)
		}
	}
	e.At(0, chainFn)
	e.RunAll()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

// TestCausalOrderProperty schedules random event times and checks execution
// never observes a decreasing clock.
func TestCausalOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		ok := true
		last := -1.0
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := rng.Float64() * 100
			e.At(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				// Occasionally schedule follow-ups.
				if rng.Intn(4) == 0 {
					e.After(rng.Float64(), func() {
						if e.Now() < last {
							ok = false
						}
						last = e.Now()
					})
				}
			})
		}
		e.RunAll()
		return ok && e.queued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
