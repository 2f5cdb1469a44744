package engine

import (
	"sync"
	"testing"
	"time"

	"loki/internal/fault"
)

// constForecast predicts the same demand at every horizon.
type constForecast float64

func (constForecast) Observe(float64, float64)  {}
func (f constForecast) Predict(float64) float64 { return float64(f) }

// TestWallclockCrashReachesBusyController crashes half the pool while the
// step goroutine is stuck in a round and its call queue is full, so no call
// the crash could queue would be taken. The controller must still plan its
// next round against the five servers left up. It runs under -short, and
// CI's race job runs it under the detector.
func TestWallclockCrashReachesBusyController(t *testing.T) {
	h := newHarness(t, KindWallclock, 1, func(c *MultiConfig) {
		c.Faults = &fault.Schedule{} // no timeline: the test crashes workers itself
		c.TimeScale = 0.01
	})
	m := h.eng.(*multi)
	// A forecast past what the pool serves keeps every server wanted.
	h.meta.SetForecaster(constForecast(2000))
	entered, release := make(chan struct{}), make(chan struct{})
	var unblock sync.Once
	granted := make(chan int, 1)
	rounds := 0 // OnGrants runs under the controller lock, one call at a time
	h.ctrl.OnGrants = func(_ int, grants []int) {
		rounds++
		switch rounds {
		case 1:
			close(entered)
			<-release
		case 2:
			granted <- grants[0]
		}
	}
	if err := h.eng.Start(h.ctrl); err != nil {
		t.Fatal(err)
	}
	defer func() {
		unblock.Do(func() { close(release) })
		h.eng.Stop()
	}()

	deadline := time.After(10 * time.Second)
	select {
	case <-entered:
	case <-deadline:
		t.Fatal("no allocation round started")
	}
	for len(m.wall.calls) < cap(m.wall.calls) {
		select {
		case <-deadline:
			t.Fatalf("call queue holds %d of %d calls", len(m.wall.calls), cap(m.wall.calls))
		case <-time.After(time.Millisecond):
		}
	}
	m.lock() // faults fire as engine events, under the lock
	down := m.Fail(0, 5)
	m.unlock()
	unblock.Do(func() { close(release) })

	select {
	case got := <-granted:
		if up := 10 - len(down); got > up {
			t.Fatalf("the round after the crash granted %d servers with %d up", got, up)
		}
	case <-deadline:
		t.Fatal("no allocation round after the crash")
	}
	if err := h.eng.Stop(); err != nil {
		t.Fatal(err)
	}
}
