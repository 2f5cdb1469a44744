package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/fault"
	"loki/internal/metrics"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// TestFaultTimeline runs a fault schedule through the simulator: the
// events fire sorted by time, whatever their order in the schedule; every
// recovery fires after its fault and restores exactly the servers that fault
// hit; and OnFault sees each action at its time with its description.
func TestFaultTimeline(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	var m *multi
	var got []string
	eng, err := NewMulti(KindSimulated, MultiConfig{
		Classes: []profiles.Class{{Name: "res", Count: 6, Speed: 1}, {Name: "spot", Count: 4, Speed: 1}},
		Faults: []fault.Event{
			{At: 40 * time.Second, Kind: fault.Outage, Class: "spot", RecoverAfter: 20 * time.Second},
			{At: 10 * time.Second, Kind: fault.Straggler, Class: "spot", N: 1, Factor: 0.5, RecoverAfter: 5 * time.Second},
		},
		// Each action also records the servers down and slowed after it.
		OnFault: func(timeSec float64, desc string) {
			got = append(got, fmt.Sprintf("t=%g %s | down %v slow %v", timeSec, desc, marked(m.fp.down), marked(m.fp.slowed)))
		},
		Tenants: []TenantConfig{{
			Meta:      core.NewMetadataStore(g, prof, 0.250, profiles.Batches),
			Collector: metrics.NewCollector(10, 10),
			SLOSec:    0.250,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m = eng.(*multi)
	if err := eng.Start(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.FeedAll([]*trace.Trace{trace.Ramp(1, 1, 14, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"t=10 straggle spot: 1 server(s) at 0.5x [9] | down [] slow [9]",
		"t=15 restore spot: 1 server(s) full speed [9] | down [] slow []",
		"t=40 outage spot: 4 server(s) down [9 8 7 6] | down [6 7 8 9] slow []",
		"t=60 recover spot: 4 server(s) back [9 8 7 6] | down [] slow []",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fault timeline:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// marked lists the indices set in a fault pool's mark.
func marked(mark []bool) []int {
	out := []int{}
	for i, b := range mark {
		if b {
			out = append(out, i)
		}
	}
	return out
}

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
	down := m.fail(0, 5)
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
