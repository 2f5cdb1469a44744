package experiments

import (
	"os"
	"testing"

	"loki/internal/core"
	"loki/internal/ingress"
	"loki/internal/profiles"
)

// TestCappedClaimProbe is a diagnostic, not a regression test: it prints the
// plan the MILP produces at various (demand, per-class cap) points of the
// chaos scenario, the behaviour behind the arbiter's fragment-drop retry —
// the truncated search can plan caps like [1,6] at half the frontend rate of
// the [0,6] block alone, and the breakage is demand-sensitive. It only runs
// when LOKI_PROBE is set:
//
//	LOKI_PROBE=1 go test ./internal/experiments -run CappedClaimProbe -v
//
// The production-facing counterpart of this probe lives in the telemetry
// registry: loki_planner_truncated_solves_total{tenant} counts MILP solves
// cut short by a resource limit, and loki_planner_round_seconds gauges the
// last allocation round — scrape GET /metrics (or read
// MultiSystem.Telemetry) instead of rerunning the probe to spot truncation
// in a live system.
func TestCappedClaimProbe(t *testing.T) {
	if os.Getenv("LOKI_PROBE") == "" {
		t.Skip("diagnostic probe; set LOKI_PROBE=1 to run")
	}
	classes := []profiles.Class{
		{Name: "res", Count: 12, Speed: 1.0},
		{Name: "spot", Count: 8, Speed: 1.0},
	}
	g := profiles.TrafficTree()
	prof := &profiles.Profiler{Seed: 11}
	meta := core.NewMetadataStoreHetero(g, classes,
		prof.ProfileGraphClasses(g, profiles.Batches, classes), 0.25, profiles.Batches)
	alloc, err := core.NewAllocator(meta, core.AllocatorOptions{
		Servers:       20,
		NetLatencySec: 0.002,
		KeepWarm:      true,
		Headroom:      0.30,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, demand := range []float64{240, 250, 260} {
		for _, caps := range [][]int{{1, 6}, {0, 6}, {5, 2}, {0, 7}, {7, 0}, {6, 6}, {1, 8}} {
			plan, err := alloc.AllocateCapped(demand, caps)
			if err != nil {
				t.Logf("demand=%.0f caps=%v err=%v", demand, caps, err)
				continue
			}
			routes := core.MostAccurateFirst(g, core.ExpandPlan(plan), demand*1.3, meta.MultFactor)
			t.Logf("demand=%.0f caps=%v servers=%v rate=%.0f acc=%.3f mode=%v served=%.2f stats=%+v",
				demand, caps, plan.ServersByClass, ingress.FrontendRate(routes),
				plan.ExpectedAccuracy, plan.Mode, plan.ServedFraction, plan.SolveStats)
		}
	}
}
