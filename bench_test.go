// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Each benchmark runs a scaled-down version of the corresponding
// experiment per iteration and reports the headline quantities as custom
// metrics, so `go test -bench=. -benchmem` reproduces the whole evaluation
// in one pass. cmd/lokiexp runs the full-size versions; §6.5's planner and
// router overheads come from `lokiexp -fig runtime`, and the system's own
// speed from the lokibench workloads under bench/.
package loki_test

import (
	"testing"
	"time"

	"loki/internal/core"
	"loki/internal/experiments"
	"loki/internal/profiles"
)

// BenchmarkFigure1CapacityPhases sweeps demand over the two-task traffic
// chain and reports the phase boundaries and capacity gains of Figure 1.
func BenchmarkFigure1CapacityPhases(b *testing.B) {
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1(20, 0.250, 11)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.HardwareLimitQPS, "hwlimit_qps")
	b.ReportMetric(last.Phase2CapacityGain, "phase2_gain_x")
	b.ReportMetric(last.TotalCapacityGain, "total_gain_x")
	b.ReportMetric(100*(1-last.AccuracyAtPhase2), "phase2_accdrop_%")
}

// BenchmarkFigure3AccuracyThroughput profiles the EfficientNet family
// (Figure 3's tradeoff curve).
func BenchmarkFigure3AccuracyThroughput(b *testing.B) {
	var rows []experiments.Fig3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure3()
	}
	b.ReportMetric(rows[0].MaxQPS, "b0_qps")
	b.ReportMetric(rows[len(rows)-1].MaxQPS, "b7_qps")
	b.ReportMetric(rows[0].MaxQPS/rows[len(rows)-1].MaxQPS, "qps_spread_x")
}

// BenchmarkFigure5TrafficAnalysis runs the three-system comparison on the
// traffic-analysis pipeline (Figure 5) on a shortened trace.
func BenchmarkFigure5TrafficAnalysis(b *testing.B) {
	var last *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Comparison(experiments.CompareConfig{
			TrafficNotSocial: true, Seed: 11, TraceSteps: 48,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ViolationGainVsProteus, "violgain_vs_proteus_x")
	b.ReportMetric(last.CapacityGainVsInferLine, "capgain_vs_inferline_x")
	b.ReportMetric(last.ServerGainVsProteus, "servergain_vs_proteus_x")
	b.ReportMetric(last.Loki.Summary.MeanAccuracy, "loki_accuracy")
	b.ReportMetric(last.Loki.Summary.ViolationRatio, "loki_violations")
}

// BenchmarkFigure6SocialMedia runs the same comparison on the social-media
// pipeline (Figure 6).
func BenchmarkFigure6SocialMedia(b *testing.B) {
	var last *experiments.ComparisonResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Comparison(experiments.CompareConfig{
			TrafficNotSocial: false, Seed: 11, TraceSteps: 48,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ViolationGainVsProteus, "violgain_vs_proteus_x")
	b.ReportMetric(last.CapacityGainVsInferLine, "capgain_vs_inferline_x")
	b.ReportMetric(last.Loki.Summary.MeanAccuracy, "loki_accuracy")
}

// BenchmarkFigure7DroppingAblation compares the four §5.2 early-dropping
// mechanisms (Figure 7).
func BenchmarkFigure7DroppingAblation(b *testing.B) {
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure7(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ViolationRatio, "nodrop_viol")
	b.ReportMetric(rows[1].ViolationRatio, "lasttask_viol")
	b.ReportMetric(rows[2].ViolationRatio, "pertask_viol")
	b.ReportMetric(rows[3].ViolationRatio, "opportunistic_viol")
}

// BenchmarkFigure8SLOSensitivity sweeps the latency SLO (Figure 8).
func BenchmarkFigure8SLOSensitivity(b *testing.B) {
	var rows []experiments.Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure8(3, []float64{200, 300, 400})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if !r.Feasible {
			continue
		}
		switch r.SLOMs {
		case 200:
			b.ReportMetric(r.ViolationRatio, "viol_at_200ms")
		case 400:
			b.ReportMetric(r.ViolationRatio, "viol_at_400ms")
		}
	}
}

// BenchmarkSimulatorValidation runs the §6.2 sim-vs-prototype comparison on
// a compressed trace (the live engine runs in scaled wall-clock time, so
// iterations are inherently slow).
func BenchmarkSimulatorValidation(b *testing.B) {
	var last *experiments.ValidationResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Validate(experiments.ValidateConfig{
			Seed: 5, PeakQPS: 350, TraceSteps: 16, StepSec: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AccuracyDeltaPct, "acc_delta_%")
	b.ReportMetric(last.ViolationDeltaPct, "viol_delta_pp")
	b.ReportMetric(last.ServersDeltaPct, "servers_delta_%")
}

// BenchmarkHeteroAllocate measures one Resource Manager allocation on a
// homogeneous 20-server pool versus the 3-class heterogeneous fleet of the
// hetero experiment (24 servers, class-expanded configuration graph), over a
// cycling demand walk. The hetero MILP carries one capacity row per class
// and |classes|× the configurations, so its solve time bounds the cost of
// the hardware-class refactor; milp_solves counts branch-and-bound
// invocations per iteration. One untimed pass over the walk on a fresh
// allocator takes the census of the plans' final solves: pivots/node (node
// relaxations re-optimised warm cost tens of pivots, solved from scratch
// hundreds), nodes/solve, and truncated_share, the share a resource limit
// stopped — on the priced fleet that includes every plan the hardware step
// returns, which is cut at its first plateau on purpose. The recorded
// baseline lives in BENCH_hetero.json.
func BenchmarkHeteroAllocate(b *testing.B) {
	fleets := []struct {
		name    string
		classes []profiles.Class
	}{
		{"homogeneous", profiles.DefaultClasses(20)},
		{"hetero3", []profiles.Class{
			{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: 3.2},
			{Name: "v100", Count: 8, Speed: 1.0, CostPerHour: 1.2},
			{Name: "t4", Count: 12, Speed: 0.5, CostPerHour: 0.55},
		}},
	}
	demands := []float64{150, 350, 600, 250, 500}
	for _, f := range fleets {
		b.Run(f.name, func(b *testing.B) {
			g := profiles.TrafficTree()
			prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, f.classes)
			meta := core.NewMetadataStoreHetero(g, f.classes, prof, 0.250, profiles.Batches)
			newAlloc := func() *core.Allocator {
				a, err := core.NewAllocator(meta, core.AllocatorOptions{
					NetLatencySec: 0.002, KeepWarm: true,
					Headroom: 0.30, SolveTimeLimit: 2 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				return a
			}
			nodes, pivots, truncated := 0, 0, 0
			census := newAlloc()
			for _, d := range demands {
				plan, err := census.Allocate(d)
				if err != nil {
					b.Fatal(err)
				}
				nodes += plan.SolveStats.Nodes
				pivots += plan.SolveStats.LPIters
				if plan.SolveStats.Truncated {
					truncated++
				}
			}

			alloc := newAlloc()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alloc.Allocate(demands[i%len(demands)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(alloc.Perf().MILPSolves)/float64(b.N), "milp_solves")
			b.ReportMetric(float64(pivots)/float64(nodes), "pivots/node")
			b.ReportMetric(float64(nodes)/float64(len(demands)), "nodes/solve")
			b.ReportMetric(float64(truncated)/float64(len(demands)), "truncated_share")
		})
	}
}

// BenchmarkChaosOutage runs the chaos grid's headline cell per iteration —
// a whole-class spot outage with timed recovery, tiered vs untiered, on the
// quick trace — and reports the during-fault goodput of every (arm, tenant)
// pair plus the tiered arm's post-recovery gap to the oracle. The
// regression canaries for the failure model: the tiered arm must hold the
// high tier through the outage (tiered_gold_during ≥ 0.95) while the
// untiered arm degrades both tenants, and recovery must land within 2% of
// the fault-free oracle. The recorded full-length baseline lives in
// BENCH_chaos.json.
func BenchmarkChaosOutage(b *testing.B) {
	var last *experiments.ChaosResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Chaos(experiments.ChaosConfig{
			Seed: 11, Quick: true, Faults: []string{"outage"},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, cell := range last.Cells {
		arm := "untiered"
		if cell.Tiered {
			arm = "tiered"
		}
		for _, t := range cell.Tenants {
			b.ReportMetric(t.During.GoodputRatio, arm+"_"+t.Name+"_during")
			if cell.Tiered {
				b.ReportMetric(t.After.GoodputRatio-t.OracleAfter.GoodputRatio, arm+"_"+t.Name+"_recovery_gap")
			}
		}
	}
}

// BenchmarkForecastSpike runs the proactive-provisioning experiment per
// iteration (reactive vs trend vs Holt-Winters on an identical flash crowd
// and an identical diurnal cycle) and reports every run's window SLO
// attainment — spike-window for the flash crowd, whole-run for diurnal —
// the regression canaries for the forecasting subsystem. The recorded
// baseline lives in BENCH_forecast.json.
func BenchmarkForecastSpike(b *testing.B) {
	var last []*experiments.ForecastResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Forecast(experiments.ForecastConfig{
			Seed: 11, TraceSteps: 24,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, res := range last {
		suffix := "_spike_slo"
		if res.Scenario == "diurnal" {
			suffix = "_diurnal_slo"
		}
		for _, o := range res.Outcomes {
			b.ReportMetric(o.WindowAttainment, o.Name+suffix)
		}
	}
}
