package experiments

import (
	"math"
	"testing"

	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// runPin is the part of a runResult pinned to recorded values.
type runPin struct {
	Injected, Completed, Dropped, Rerouted, Swaps int64
	Allocates                                     int
	Accuracy, Violation, Servers, P99             float64
}

func pinRun(r *runResult) runPin {
	s := r.Summary
	return runPin{r.Injected, r.Completed, r.Dropped, r.Rerouted, r.Swaps, r.allocates,
		s.MeanAccuracy, s.ViolationRatio, s.MeanServers, s.LatencyP99}
}

// same compares counts exactly and the float aggregates to the 12
// significant digits they were recorded at.
func (p runPin) same(q runPin) bool {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-11*math.Max(math.Abs(a), 1) }
	return p.Injected == q.Injected && p.Completed == q.Completed && p.Dropped == q.Dropped &&
		p.Rerouted == q.Rerouted && p.Swaps == q.Swaps && p.Allocates == q.Allocates &&
		near(p.Accuracy, q.Accuracy) && near(p.Violation, q.Violation) &&
		near(p.Servers, q.Servers) && near(p.P99, q.P99)
}

// TestRunMatchesRecordedRuns pins Run — the path every paper figure takes —
// to recorded results: all three approaches, all three pipelines, a
// non-default drop policy, swap and jitter modelling, and a 3-class pool.
// Every planner search stops on counted work, so the numbers do not depend
// on host load.
func TestRunMatchesRecordedRuns(t *testing.T) {
	tr := trace.AzureLike(1, 24, 5).ScaleToPeak(1000)
	for _, tc := range []struct {
		name string
		cfg  RunConfig
		want runPin
	}{
		{"loki/tree",
			RunConfig{Graph: profiles.TrafficTree(), Approach: Loki, swapLatencySec: 0.2, ExecJitter: 0.05},
			runPin{58425, 56558, 1867, 563, 116, 25, 0.964491752352, 0.142832691485, 12.6317241379, 0.595436337625}},
		{"inferline/tree",
			RunConfig{Graph: profiles.TrafficTree(), Approach: inferLine},
			runPin{58425, 40786, 17639, 14, 0, 25, 1, 0.491296534018, 12.7183908046, 0.963473043167}},
		{"proteus/tree",
			RunConfig{Graph: profiles.TrafficTree(), Approach: proteus},
			runPin{58425, 46327, 12098, 59, 0, 25, 0.80508830234, 0.265896448438, 20, 0.473052055206}},
		{"loki/chain",
			RunConfig{Graph: profiles.TrafficChain(), Approach: Loki},
			runPin{58425, 57168, 1257, 172, 0, 25, 0.975350630417, 0.109439452289, 11.716091954, 0.74038147139}},
		{"loki/social",
			RunConfig{Graph: profiles.SocialMedia(), Approach: Loki},
			runPin{58425, 57444, 981, 48, 0, 25, 0.993052790753, 0.105827984596, 11.2124137931, 0.737937956204}},
		{"loki/chain/nodrop",
			RunConfig{Graph: profiles.TrafficChain(), Approach: Loki, policy: policy.NoDrop{}},
			runPin{58425, 57401, 1024, 0, 0, 25, 0.975520115092, 0.11917843389, 11.716091954, 0.811180921053}},
		{"loki/chain/3-class",
			RunConfig{Graph: profiles.TrafficChain(), Approach: Loki, Classes: []profiles.Class{
				{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: 3.2},
				{Name: "v100", Count: 8, Speed: 1.0, CostPerHour: 1.2},
				{Name: "t4", Count: 12, Speed: 0.5, CostPerHour: 0.55},
			}},
			// Re-recorded when the accuracy-scaling search began branching
			// on per-(task, class) replica totals (its searches stop at
			// different plans inside the 1% gap), and again when this test
			// lost its stall-free 10 s solve limit: the priced hardware
			// searches now stop at their first 96-node plateau, as they
			// always did when serving, and five accuracy-scaling searches
			// on the 635 × 128 model are stall-cut at a quarter of their
			// pivot budget.
			runPin{58425, 56916, 1509, 1089, 0, 25, 0.973388009553, 0.111373555841, 14.2427586207, 0.696286019210}},
	} {
		cfg := tc.cfg
		cfg.Trace, cfg.Seed = tr, 7
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := pinRun(res); !got.same(tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestRunWallclockConserves runs Run on the wall-clock backend (about 2 s of
// real time). Real scheduling makes latencies host-dependent, so it asserts
// conservation only, never attainment.
func TestRunWallclockConserves(t *testing.T) {
	res, err := Run(RunConfig{
		Graph: profiles.TrafficChain(), Trace: trace.Ramp(100, 200, 3, 3),
		Approach: Loki, backend: wallclock, Seed: 3, timeScale: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("no traffic injected")
	}
	if res.Injected != res.Completed+res.Dropped {
		t.Fatalf("conservation: injected %d, completed %d + dropped %d", res.Injected, res.Completed, res.Dropped)
	}
}
