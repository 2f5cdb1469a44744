package stack

import (
	"errors"
	"sync"
	"testing"

	"loki/internal/engine"
	"loki/internal/ingress"
	"loki/internal/profiles"
	"loki/internal/telemetry"
)

func testPool() Pool {
	return Pool{
		MultiConfig: engine.MultiConfig{Servers: 8, NetLatencySec: 0.002, Seed: 1},
		Headroom:    0.30,
		BucketSec:   30,
	}
}

// A configuration error surfaces from Add, before anything pool-wide is
// built: no variant path of the chain fits a 10 ms SLO.
func TestAddRejectsInfeasibleSLO(t *testing.T) {
	s := New(testPool())
	if _, err := s.Add(Spec{Name: "p", Graph: profiles.TrafficChain(), SLOSec: 0.010}); err == nil {
		t.Fatal("Add accepted an SLO no configuration path fits")
	}
	if len(s.Tenants) != 0 {
		t.Fatalf("a rejected spec left %d tenants behind", len(s.Tenants))
	}
}

// The whole lifecycle on the wall-clock backend with telemetry on:
// concurrent submitters race the pacer, the step goroutine and the
// collectors, and every admitted request is resolved once Stop has drained.
func TestWallclockStackConserves(t *testing.T) {
	p := testPool()
	p.Backend, p.TimeScale = engine.KindWallclock, 0.05
	p.Registry, p.TraceProb = telemetry.NewRegistry(), 1
	s := New(p)
	for _, name := range []string{"a", "b"} {
		if _, err := s.Add(Spec{Name: name, Graph: profiles.TrafficChain(), SLOSec: 0.25, Admission: name == "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if s.Tenants[0].ecfg.Telemetry == nil || s.Tenants[0].Tracer == nil {
		t.Fatal("a registry was set but the tenants got no telemetry")
	}
	if err := s.Prime([]float64{50, 50}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				if err := s.Eng.Submit(i % 2); err != nil && !errors.Is(err, ingress.ErrShed) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Eng.Stop(); err != nil {
		t.Fatal(err)
	}
	for i := range s.Tenants {
		st := s.Eng.Observe(i).Stats
		if st.Injected+st.Shed != 100 || st.Completed+st.Dropped != st.Injected {
			t.Errorf("tenant %d: %+v, want 100 offered and every admitted request resolved", i, st)
		}
	}
}
