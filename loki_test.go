package loki_test

import (
	"testing"
	"time"

	"loki"
	"loki/internal/core"
)

func TestServeQuickstart(t *testing.T) {
	report, err := loki.Serve(
		loki.TrafficAnalysisPipeline(),
		loki.AzureTrace(1, 24, 5, 600),
		loki.WithServers(20),
		loki.WithSLO(250*time.Millisecond),
		loki.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	if report.Arrivals == 0 {
		t.Fatal("no traffic served")
	}
	if report.Accuracy <= 0.5 || report.Accuracy > 1.0 {
		t.Fatalf("accuracy = %g", report.Accuracy)
	}
	if report.SLOViolationRatio > 0.25 {
		t.Fatalf("violations = %g", report.SLOViolationRatio)
	}
	if report.MeanServers <= 0 || report.MaxServers > 20 {
		t.Fatalf("servers = %g..%g", report.MinServers, report.MaxServers)
	}
	if len(report.Series) == 0 {
		t.Fatal("no series")
	}
	if report.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestServeBaselines(t *testing.T) {
	tr := loki.AzureTrace(2, 16, 5, 500)
	pipe := loki.SocialMediaPipeline()
	for _, b := range []loki.Baseline{loki.BaselineInferLine, loki.BaselineProteus} {
		r, err := loki.Serve(pipe, tr, loki.WithBaseline(b), loki.WithSeed(2))
		if err != nil {
			t.Fatalf("baseline %d: %v", b, err)
		}
		if r.Arrivals == 0 {
			t.Fatalf("baseline %d served nothing", b)
		}
	}
}

func TestServeWithEachPolicy(t *testing.T) {
	tr := loki.AzureTrace(3, 12, 5, 400)
	pipe := loki.TrafficChainPipeline()
	for _, p := range []loki.Policy{loki.NoDropPolicy, loki.LastTaskPolicy, loki.PerTaskPolicy, loki.OpportunisticPolicy} {
		if _, err := loki.Serve(pipe, tr, loki.WithPolicy(p), loki.WithSeed(3)); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestPlanForScalesWithDemand(t *testing.T) {
	pipe := loki.TrafficChainPipeline()
	low, err := loki.PlanFor(pipe, 100, loki.WithServers(20))
	if err != nil {
		t.Fatal(err)
	}
	high, err := loki.PlanFor(pipe, 450, loki.WithServers(20))
	if err != nil {
		t.Fatal(err)
	}
	if low.ServersUsed >= high.ServersUsed {
		t.Fatalf("servers %d → %d; more demand must use more servers", low.ServersUsed, high.ServersUsed)
	}
	if low.ExpectedAccuracy < 1-1e-9 {
		t.Fatalf("low demand should keep max accuracy, got %g", low.ExpectedAccuracy)
	}
}

func TestMaxCapacityExceedsHardwareLimit(t *testing.T) {
	pipe := loki.TrafficChainPipeline()
	maxCap, err := loki.MaxCapacity(pipe, loki.WithServers(20))
	if err != nil {
		t.Fatal(err)
	}
	// Hardware-only capacity is ≈560 QPS; accuracy scaling extends it well
	// beyond (Figure 1's whole point).
	if maxCap < 1000 {
		t.Fatalf("max capacity = %.0f, want >1000 QPS with accuracy scaling", maxCap)
	}
}

// MaxCapacity has no ceiling: a pool large enough to serve more than 20,000
// qps (the bisection's starting upper end) reports its real capacity, and
// just below it the planner still serves the whole demand.
func TestMaxCapacityBeyondStartingRange(t *testing.T) {
	pipe := loki.TrafficAnalysisPipeline()
	maxCap, err := loki.MaxCapacity(pipe, loki.WithServers(300))
	if err != nil {
		t.Fatal(err)
	}
	if maxCap <= 20000 {
		t.Fatalf("max capacity of 300 servers = %.2f qps, want above 20000", maxCap)
	}
	plan, err := loki.PlanFor(pipe, 0.99*maxCap, loki.WithServers(300))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode == core.Saturated {
		t.Fatalf("plan at 0.99 × capacity (%.0f qps) is saturated", 0.99*maxCap)
	}
}

func TestMinAccuracyFloorLimitsScaling(t *testing.T) {
	pipe := loki.TrafficChainPipeline()
	// At deep overload without a floor, accuracy scaling reaches ≈0.48;
	// with a 0.9 floor every used path must stay above it.
	plan, err := loki.PlanFor(pipe, 1800, loki.WithServers(20), loki.WithMinAccuracy(0.9))
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range plan.PathFlows {
		if pf.Accuracy < 0.9 {
			t.Fatalf("path accuracy %.3f below the 0.9 floor", pf.Accuracy)
		}
	}
	// The floor costs capacity: the floored cluster cannot fully serve what
	// the unfloored one can.
	unfloored, err := loki.MaxCapacity(pipe, loki.WithServers(20))
	if err != nil {
		t.Fatal(err)
	}
	floored, err := loki.MaxCapacity(pipe, loki.WithServers(20), loki.WithMinAccuracy(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if floored >= unfloored {
		t.Fatalf("floored capacity %.0f ≥ unfloored %.0f", floored, unfloored)
	}
}

func TestInfeasibleSLOSurfacesError(t *testing.T) {
	if _, err := loki.Serve(
		loki.TrafficAnalysisPipeline(),
		loki.AzureTrace(1, 6, 5, 100),
		loki.WithSLO(10*time.Millisecond),
	); err == nil {
		t.Fatal("a 10 ms end-to-end SLO must be rejected")
	}
}
