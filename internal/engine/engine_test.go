package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/fault"
	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// kinds are the two backends the table tests run on.
var kinds = []Kind{KindSimulated, KindWallclock}

func kindName(k Kind) string {
	if k == KindWallclock {
		return "wallclock"
	}
	return "simulated"
}

// harness is a one-tenant backend, its controller with the pre-warm plan
// already published, and the tenant's metadata store. Workers pay a model
// load on every placement; the wall-clock kind runs at 20× real time.
type harness struct {
	eng  MultiEngine
	ctrl *core.MultiController
	meta *core.MetadataStore
}

func newHarness(t *testing.T, kind Kind, seed int64) harness {
	t.Helper()
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{Seed: seed}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers: 10, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewMulti(kind, MultiConfig{
		Servers: 10, NetLatencySec: 0.002, Seed: seed, SwapLatencySec: 0.02, TimeScale: 0.05,
		Tenants: []TenantConfig{{
			Meta:      meta,
			Policy:    policy.Opportunistic{},
			Collector: metrics.NewCollector(10, 10),
			SLOSec:    0.250,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewMultiController(10, []*core.Tenant{{
		Name: g.Name, Meta: meta, Alloc: alloc, RouteHeadroom: 0.30,
		Publish: func(plan *core.Plan, routes *core.Routes) { eng.ApplyPlan(0, plan, routes) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	meta.ObserveDemand(100)
	if err := ctrl.Step(true); err != nil {
		t.Fatal(err)
	}
	return harness{eng: eng, ctrl: ctrl, meta: meta}
}

func runOnce(t *testing.T, seed int64) Stats {
	t.Helper()
	h := newHarness(t, KindSimulated, seed)
	eng := h.eng
	if err := eng.Start(h.ctrl); err != nil {
		t.Fatal(err)
	}
	tr := trace.Ramp(80, 160, 8, 2)
	if err := eng.FeedAll([]*trace.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	return eng.Stats(0)
}

func TestSimulatedConservation(t *testing.T) {
	st := runOnce(t, 1)
	if st.Injected == 0 {
		t.Fatal("no traffic")
	}
	if st.Injected != st.Completed+st.Dropped {
		t.Fatalf("conservation: %d != %d + %d", st.Injected, st.Completed, st.Dropped)
	}
}

func TestSimulatedDeterministicPerSeed(t *testing.T) {
	if a, b := runOnce(t, 7), runOnce(t, 7); a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestLifecycleErrors holds both kinds to one lifecycle: the typed errors
// before Start and after Stop, an idempotent Stop that drains what was
// submitted, and swap accounting.
func TestLifecycleErrors(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kindName(kind), func(t *testing.T) {
			h := newHarness(t, kind, 2)
			eng := h.eng
			if err := eng.Submit(0); !errors.Is(err, ErrNotStarted) {
				t.Fatalf("Submit before Start = %v", err)
			}
			if err := eng.FeedAll([]*trace.Trace{trace.Ramp(10, 20, 2, 1)}); !errors.Is(err, ErrNotStarted) {
				t.Fatalf("FeedAll before Start = %v", err)
			}
			if err := eng.Start(h.ctrl); err != nil {
				t.Fatal(err)
			}
			if err := eng.Submit(0); err != nil {
				t.Fatal(err)
			}
			if err := eng.Stop(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Stop(); err != nil {
				t.Fatalf("Stop must be idempotent, got %v", err)
			}
			if err := eng.Submit(0); !errors.Is(err, ErrStopped) {
				t.Fatalf("Submit after Stop = %v", err)
			}
			if err := eng.FeedAll([]*trace.Trace{trace.Ramp(10, 20, 2, 1)}); !errors.Is(err, ErrStopped) {
				t.Fatalf("FeedAll after Stop = %v", err)
			}
			st := eng.Stats(0)
			if st.Injected != 1 || st.Completed+st.Dropped != 1 {
				t.Fatalf("submitted request not drained by Stop: %+v", st)
			}
			if st.Swaps == 0 {
				t.Fatalf("the pre-warm placement loaded no model: %+v", st)
			}
		})
	}
}

// TestSwapLatencyAppliesToBothKinds re-plans a serving backend for four
// times the demand: the workers that change model pay the swap latency, and
// both kinds count them.
func TestSwapLatencyAppliesToBothKinds(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kindName(kind), func(t *testing.T) {
			h := newHarness(t, kind, 5)
			if err := h.eng.Start(h.ctrl); err != nil {
				t.Fatal(err)
			}
			before := h.eng.Stats(0).Swaps
			h.meta.ObserveDemand(400)
			if err := h.ctrl.Step(true); err != nil {
				t.Fatal(err)
			}
			if err := h.eng.Stop(); err != nil {
				t.Fatal(err)
			}
			if after := h.eng.Stats(0).Swaps; after <= before {
				t.Fatalf("re-plan for 4x the demand counted no swap: %d before, %d after", before, after)
			}
		})
	}
}

func TestSubmitOnlyDrainsAtStop(t *testing.T) {
	h := newHarness(t, KindSimulated, 3)
	eng := h.eng
	if err := eng.Start(h.ctrl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := eng.Submit(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats(0)
	if st.Injected != 25 || st.Completed == 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestRepublishWhileServing publishes alternating plans, crashes and recovers
// workers, and submits requests from several goroutines at once against a
// running wall-clock backend: ApplyPlan reuses the Reconciler's scratch and
// the cluster's route tables across publishes, and everything it touches must
// be under the backend's lock while the pacer fires events. Run it with -race
// (CI does, and -short keeps it). It asserts conservation, not latency.
func TestRepublishWhileServing(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers: 12, NetLatencySec: 0.002, KeepWarm: true, Headroom: 0.30, SolveTimeLimit: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var routes []*core.Routes
	for _, demand := range []float64{120, 200} {
		plan, err := alloc.Allocate(demand)
		if err != nil {
			t.Fatal(err)
		}
		routes = append(routes, core.MostAccurateFirst(g, core.ExpandPlan(plan), demand*1.3, meta.MultFactor))
	}
	eng, err := NewMulti(KindWallclock, MultiConfig{
		Servers: 12, NetLatencySec: 0.002, Seed: 3, TimeScale: 0.02,
		Faults: &fault.Schedule{}, // no timeline: the test crashes workers itself
		Tenants: []TenantConfig{{
			Meta: meta, Policy: policy.Opportunistic{}, Collector: metrics.NewCollector(5, 12), SLOSec: 0.250,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := eng.(*multi)
	eng.ApplyPlan(0, nil, routes[0])
	if err := eng.Start(nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = eng.Submit(0) // never shed: no admission controller is armed
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
	}
	var down []int
	for i := 1; i <= 300; i++ {
		eng.ApplyPlan(0, nil, routes[i%2])
		// Faults fire as engine events, under the lock; take it as they do.
		switch i % 10 {
		case 3:
			m.lock()
			down = m.Fail(0, 1+i/10%3)
			m.unlock()
		case 7:
			m.lock()
			m.Recover(down)
			m.unlock()
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats(0)
	if st.Injected == 0 || st.Injected != st.Completed+st.Dropped {
		t.Fatalf("conservation: %+v", st)
	}
	if got, want := eng.ActiveServers(0), len(routes[0].Specs); got != want {
		t.Fatalf("%d servers active after the last publish, plan has %d replicas", got, want)
	}
}

// TestWallclockGoroutinesDoNotScaleWithPool starts a 1,000-server wall-clock
// backend: serving runs on the pacer and the step goroutine, not on a
// goroutine per worker.
func TestWallclockGoroutinesDoNotScaleWithPool(t *testing.T) {
	const servers = 1000
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	eng, err := NewMulti(KindWallclock, MultiConfig{
		Servers: servers, NetLatencySec: 0.002,
		Tenants: []TenantConfig{{
			Meta:      core.NewMetadataStore(g, prof, 0.250, profiles.Batches),
			Collector: metrics.NewCollector(5, servers),
			SLOSec:    0.250,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := eng.Start(nil); err != nil {
		t.Fatal(err)
	}
	grown := runtime.NumGoroutine() - before
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	if grown > 8 {
		t.Fatalf("Start on a %d-server pool added %d goroutines", servers, grown)
	}
}
