package live

import (
	"sync"
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// TestLiveEngineServesTrace runs a short real-time workload end to end: the
// controller allocates, goroutine workers batch and forward, and the
// metrics must show the traffic served with sane accuracy. This is the unit
// test under the §6.2 validation experiment.
func TestLiveEngineServesTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (~8s wall)")
	}
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers: 20, NetLatencySec: 0.002, KeepWarm: true,
		Headroom: 0.30, SolveTimeLimit: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector(5, 20)
	eng, err := New(meta, policy.Opportunistic{}, col, Options{
		Servers: 20, SLOSec: 0.250, NetLatencySec: 0.002, Seed: 3,
		TimeScale: 0.5, // 2× compressed wall time
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewMultiController(20, []*core.Tenant{{
		Name: g.Name, Meta: meta, Alloc: alloc, RouteHeadroom: 0.30, Publish: eng.ApplyPlan,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Constant load: ramps stress controller lag identically in both
	// engines (that is the validation experiment's job); the unit test
	// checks the steady-state machinery.
	tr := &trace.Trace{Interval: 4, QPS: []float64{200, 200, 200, 200}}
	meta.ObserveDemand(tr.QPS[0])
	if err := ctrl.Step(true); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(ctrl); err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(tr); err != nil {
		t.Fatal(err)
	}
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}

	if eng.TotalInjected == 0 {
		t.Fatal("no traffic injected")
	}
	if eng.TotalInjected != eng.TotalCompleted+eng.TotalDropped {
		t.Fatalf("conservation: %d != %d + %d", eng.TotalInjected, eng.TotalCompleted, eng.TotalDropped)
	}
	s := col.Summarize()
	if s.MeanAccuracy < 0.9 {
		t.Fatalf("accuracy %.4f, want ≈1.0 at low demand", s.MeanAccuracy)
	}
	if s.ViolationRatio > 0.15 {
		t.Fatalf("violation ratio %.4f, too high for a steady lightly-loaded run", s.ViolationRatio)
	}
	if eng.ActiveServers() == 0 {
		t.Fatal("no active servers after run")
	}
}

func TestLiveEngineRejectsZeroServers(t *testing.T) {
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	if _, err := New(meta, policy.NoDrop{}, nil, Options{}); err == nil {
		t.Fatal("want error for zero servers")
	}
}

// TestRepublishWhileServing publishes alternating plans, crashes and recovers
// a worker, and submits requests from several goroutines at once against a
// running engine: ApplyPlan reuses the Reconciler's scratch and the engine's
// route maps across publishes, and everything it touches must be under e.mu.
// Run it with -race (CI does, and -short keeps it). It asserts conservation,
// not latency.
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
	eng, err := New(meta, policy.Opportunistic{}, metrics.NewCollector(5, 12), Options{
		Servers: 12, SLOSec: 0.250, NetLatencySec: 0.002, Seed: 3, TimeScale: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.ApplyPlan(nil, routes[0])
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
					_ = eng.Submit() // never shed: no admission controller is armed
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
	}
	for i := 1; i <= 300; i++ {
		eng.ApplyPlan(nil, routes[i%2])
		switch i % 10 {
		case 3:
			eng.SetWorkerDown(i % 12)
		case 7:
			eng.SetWorkerUp((i - 4) % 12)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	injected, completed, dropped, _, _ := eng.Totals()
	if injected == 0 || injected != completed+dropped {
		t.Fatalf("conservation: injected %d, completed %d + dropped %d", injected, completed, dropped)
	}
	if got, want := eng.ActiveServers(), len(routes[0].Specs); got != want {
		t.Fatalf("%d servers active after the last publish, plan has %d replicas", got, want)
	}
}
