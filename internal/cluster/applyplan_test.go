package cluster

import (
	"math"
	"math/rand"
	"testing"

	"loki/internal/core"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/sim"
)

// driftingPublishes stands up what one tenant of the fleet cell (lokibench's
// plan-fleet) publishes into: an idle traffic-chain cluster over the
// given pool with nil telemetry, and a cycle of n plans with their routes,
// allocated for a demand that wanders ±4 % around 16.8 qps per server of the
// tenant's share, so consecutive plans differ by a few replicas.
func driftingPublishes(tb testing.TB, classes []profiles.Class, share float64, n int) (*Cluster, []*core.Routes) {
	tb.Helper()
	g := profiles.TrafficChain()
	prof := (&profiles.Profiler{Seed: 11}).ProfileGraphClasses(g, profiles.Batches, classes)
	meta := core.NewMetadataStoreHetero(g, classes, prof, 0.250, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers: profiles.TotalCount(classes), NetLatencySec: 0.002, KeepWarm: true,
		Headroom: 0.30,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := New(&sim.Engine{}, meta, policy.Opportunistic{}, nil, Options{
		Classes: classes, SLOSec: 0.250, NetLatencySec: 0.002, Seed: 11,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	routes := make([]*core.Routes, n)
	for i := range routes {
		demand := 16.8 * share * (1 + 0.04*math.Sin(2*math.Pi*float64(i)/float64(n)) + 0.01*(2*rng.Float64()-1))
		plan, err := alloc.Allocate(demand)
		if err != nil {
			tb.Fatal(err)
		}
		routes[i] = core.MostAccurateFirst(g, core.ExpandPlan(plan), demand*1.30, meta.MultFactor)
	}
	return cl, routes
}

var (
	fleetCellPool = []profiles.Class{
		{Name: "fast", Count: 200, Speed: 2.0}, {Name: "mid", Count: 400, Speed: 1.0}, {Name: "slow", Count: 400, Speed: 0.5},
	}
	// One of the cell's 24 tenants: 1000/24 servers' worth of demand.
	fleetCellShare = 1000.0 / 24
)

// applyPlanAllocCeiling is what a steady-state publish may allocate beyond
// the Routes it is handed: nothing. The claim loop this replaced made two
// pool-sized slices, two maps and two formatted strings per (spec, worker)
// comparison — 198 allocations a publish at this shape.
const applyPlanAllocCeiling = 0

func TestApplyPlanSteadyStateDoesNotAllocate(t *testing.T) {
	cl, routes := driftingPublishes(t, fleetCellPool, fleetCellShare, 16)
	distinct := map[int]bool{}
	for _, r := range routes {
		cl.ApplyPlan(nil, r) // one cycle sizes the scratch
		distinct[len(r.Specs)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("every plan has %d replicas; the cycle does not drift", len(routes[0].Specs))
	}
	i := 0
	got := testing.AllocsPerRun(10*len(routes), func() {
		cl.ApplyPlan(nil, routes[i%len(routes)])
		i++
	})
	if got > applyPlanAllocCeiling {
		t.Fatalf("ApplyPlan allocates %.1f times per publish in steady state, ceiling %d", got, applyPlanAllocCeiling)
	}
	if n := cl.ActiveServers(); n != len(routes[(i-1)%len(routes)].Specs) {
		t.Fatalf("%d servers active after the last publish of %d replicas", n, len(routes[(i-1)%len(routes)].Specs))
	}
}

// BenchmarkApplyPlan times one publish of a drifting plan: a fleet-cell
// tenant's ~20 replicas on the shared 1,000-worker pool, and a paper-scale
// plan on 20 workers.
func BenchmarkApplyPlan(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pool  []profiles.Class
		share float64
	}{
		{"fleet1000", fleetCellPool, fleetCellShare},
		{"paper20", profiles.DefaultClasses(20), 14},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cl, routes := driftingPublishes(b, bc.pool, bc.share, 16)
			for _, r := range routes {
				cl.ApplyPlan(nil, r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl.ApplyPlan(nil, routes[i%len(routes)])
			}
		})
	}
}
