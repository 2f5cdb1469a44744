package experiments

import (
	"testing"

	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/trace"
)

func shortTrace(peak float64) *trace.Trace {
	return trace.AzureLike(1, 24, 5).ScaleToPeak(peak)
}

func TestRunLokiBasicInvariants(t *testing.T) {
	res, err := Run(RunConfig{
		Graph: profiles.TrafficTree(), Trace: shortTrace(600),
		Approach: Loki, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("no traffic")
	}
	if res.Injected != res.Completed+res.Dropped {
		t.Fatalf("conservation: %d != %d + %d", res.Injected, res.Completed, res.Dropped)
	}
	s := res.Summary
	if s.MeanAccuracy <= 0.5 || s.MeanAccuracy > 1.0 {
		t.Fatalf("accuracy = %g", s.MeanAccuracy)
	}
	if s.ViolationRatio < 0 || s.ViolationRatio > 0.3 {
		t.Fatalf("violations = %g, want small at 600 qps peak", s.ViolationRatio)
	}
	if res.allocates == 0 {
		t.Fatal("controller never allocated")
	}
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	cfg := RunConfig{Graph: profiles.TrafficChain(), Trace: shortTrace(500), Approach: Loki, Seed: 9}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injected != b.Injected || a.Completed != b.Completed || a.Dropped != b.Dropped {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestRunBaselinesShareSubstrate(t *testing.T) {
	for _, ap := range []approach{inferLine, proteus} {
		res, err := Run(RunConfig{
			Graph: profiles.TrafficTree(), Trace: shortTrace(500),
			Approach: ap, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%v: %v", ap, err)
		}
		if res.Injected == 0 || res.Injected != res.Completed+res.Dropped {
			t.Fatalf("%v: conservation broken", ap)
		}
	}
}

func TestLokiBeatsBaselinesUnderPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	tr := shortTrace(1100)
	viol := map[approach]float64{}
	for _, ap := range []approach{Loki, inferLine, proteus} {
		res, err := Run(RunConfig{Graph: profiles.TrafficTree(), Trace: tr, Approach: ap, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		viol[ap] = res.Summary.ViolationRatio
	}
	if viol[Loki] >= viol[inferLine] || viol[Loki] >= viol[proteus] {
		t.Fatalf("Loki %0.4f vs InferLine %.4f, Proteus %.4f — Loki must win", viol[Loki], viol[inferLine], viol[proteus])
	}
}

func TestFigure1ShapeMatchesPaper(t *testing.T) {
	r, err := Figure1(20, 0.250, 11)
	if err != nil {
		t.Fatal(err)
	}
	if r.hardwareLimitQPS <= 0 || r.phase2LimitQPS <= r.hardwareLimitQPS {
		t.Fatalf("phase boundaries: hw=%g p2=%g", r.hardwareLimitQPS, r.phase2LimitQPS)
	}
	if r.phase2CapacityGain < 2.0 || r.phase2CapacityGain > 4.0 {
		t.Fatalf("phase-2 gain %.2f×, paper ≈2.7×", r.phase2CapacityGain)
	}
	drop := 1 - r.accuracyAtPhase2
	if drop < 0.05 || drop > 0.2 {
		t.Fatalf("phase-2 accuracy drop %.1f%%, paper ≈13%%", 100*drop)
	}
	// Phase 2 must degrade task 2 before task 1 (the figure's key insight).
	for _, p := range r.points {
		if p.phase == 2 && p.task2Acc > p.task1Acc {
			t.Fatalf("phase 2 point degrades task 1 first: %+v", p)
		}
	}
}

func TestFigure3TradeoffShape(t *testing.T) {
	rows := Figure3()
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8 EfficientNet variants", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].accuracy <= rows[i-1].accuracy {
			t.Fatal("accuracy not increasing along family")
		}
		if rows[i].maxQPS >= rows[i-1].maxQPS {
			t.Fatal("throughput not decreasing along family")
		}
	}
}

func TestFigure7OpportunisticWins(t *testing.T) {
	if testing.Short() {
		t.Skip("four full runs")
	}
	rows, err := Figure7(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d arms", len(rows))
	}
	opp := rows[3]
	if opp.policy != "opportunistic-rerouting" {
		t.Fatalf("unexpected order: %+v", rows)
	}
	for _, r := range rows[:3] {
		if opp.violationRatio > r.violationRatio+1e-9 {
			t.Fatalf("opportunistic (%.4f) lost to %s (%.4f)", opp.violationRatio, r.policy, r.violationRatio)
		}
	}
	if opp.rerouted == 0 {
		t.Fatal("opportunistic rerouting never rerouted")
	}
}

func TestFigure8TightSLOInfeasible(t *testing.T) {
	if testing.Short() {
		t.Skip("serving sweep")
	}
	// The paper's cliff is at 200 ms; our synthetic variants have shorter
	// batch-1 latencies than the real models, so the cliff sits near 35 ms
	// (fastest path ≈ 14 ms must fit SLO/2 − network). The qualitative
	// behaviour — an SLO below the fastest path's doubled latency is
	// rejected outright — is the reproduced property.
	rows, err := Figure8(3, []float64{30, 250})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].feasible {
		t.Fatal("30 ms SLO should be infeasible (below the fastest path)")
	}
	if !rows[1].feasible {
		t.Fatal("250 ms SLO must be feasible")
	}
}

func TestPolicyPluggedIntoRun(t *testing.T) {
	res, err := Run(RunConfig{
		Graph: profiles.TrafficChain(), Trace: shortTrace(400),
		Approach: Loki, Seed: 5, policy: policy.NoDrop{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rerouted != 0 {
		t.Fatalf("NoDrop rerouted %d requests", res.Rerouted)
	}
}
