package cluster

import (
	"runtime"
	"testing"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/sim"
	"loki/internal/telemetry"
)

// steadyQPS is the request rate of the steady-state rig: about 40 % of what
// the traffic-analysis tree serves on 20 servers, so queues stay short and
// batches run at every size.
const steadyQPS = 600

// steadyRig stands up one traffic-analysis tenant on 20 servers serving a
// fixed plan and routes from the real allocator, under the Opportunistic
// policy, with metrics and telemetry collectors attached.
func steadyRig(tb testing.TB) (*sim.Engine, *Cluster) {
	tb.Helper()
	g := profiles.TrafficTree()
	prof := (&profiles.Profiler{Seed: 11}).ProfileGraph(g, profiles.Batches)
	meta := core.NewMetadataStore(g, prof, 0.250, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers: 20, NetLatencySec: 0.002,
	})
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := alloc.Allocate(steadyQPS)
	if err != nil {
		tb.Fatal(err)
	}
	eng := &sim.Engine{}
	tel := telemetry.NewCollector(telemetry.NewRegistry(), "steady", []telemetry.WorkerClass{{Name: "default", Count: 20}})
	cl, err := New(eng, meta, policy.Opportunistic{}, metrics.NewCollector(10, 20), Options{
		Classes: profiles.DefaultClasses(20), SLOSec: 0.250, NetLatencySec: 0.002, Seed: 11, Telemetry: tel,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cl.ApplyPlan(plan, core.MostAccurateFirst(g, core.ExpandPlan(plan), steadyQPS*1.3, meta.MultFactor))
	return eng, cl
}

// injectChain injects n requests at steadyQPS, one after another on a
// single reused callback, and runs them to completion.
func injectChain(eng *sim.Engine, cl *Cluster, n int) {
	left := n
	var fire func()
	fire = func() {
		cl.InjectRequest()
		if left--; left > 0 {
			eng.After(1.0/steadyQPS, fire)
		}
	}
	eng.After(1.0/steadyQPS, fire)
	eng.RunAll()
}

// requestAllocCeiling is what one simulated request may allocate once the
// cluster's free lists and the event heap have reached their working size.
// Boxing every event, one closure and one subrequest per hop, a policy
// context per forward and a copied batch slice cost about 24.
const requestAllocCeiling = 1

func TestSteadyStateRequestsDoNotAllocate(t *testing.T) {
	eng, cl := steadyRig(t)
	injectChain(eng, cl, 10000)
	const n = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	injectChain(eng, cl, n)
	runtime.ReadMemStats(&after)
	if cl.totalCompleted < n/2 {
		t.Fatalf("only %d of %d requests completed; the rig is not serving", cl.totalCompleted, cl.totalInjected)
	}
	if cl.Inflight() != 0 {
		t.Fatalf("%d requests still in flight after the drain", cl.Inflight())
	}
	perReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.3f allocations per request", perReq)
	if perReq > requestAllocCeiling {
		t.Fatalf("a steady-state request allocates %.2f times, ceiling %d", perReq, requestAllocCeiling)
	}
}

// BenchmarkClusterRequest times one simulated request end to end on the
// steady-state rig: arrival, every hop, batch and completion, with the
// metrics and telemetry hooks. One op is one request.
func BenchmarkClusterRequest(b *testing.B) {
	eng, cl := steadyRig(b)
	injectChain(eng, cl, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	injectChain(eng, cl, b.N)
}
