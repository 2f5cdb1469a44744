package experiments

import (
	"fmt"
	"strings"
	"time"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/stack"
	"loki/internal/trace"
)

// ---------------------------------------------------------------------------
// Figure 1: capacity phases of hardware + accuracy scaling.
// ---------------------------------------------------------------------------

// Fig1Point is one demand level of the Figure 1 sweep.
type Fig1Point struct {
	DemandQPS    float64
	Mode         core.Mode
	Servers      int
	Accuracy     float64 // expected system accuracy of the plan
	Task1Acc     float64 // flow-weighted accuracy of the detection task
	Task2Acc     float64 // flow-weighted accuracy of the classification task
	ServedFrac   float64
	SolveMillis  float64
	Phase        int // 1 = hardware scaling, 2 = task-2 degradation, 3 = task-1 degradation
	PhaseComment string
}

// Fig1Result is the full Figure 1 reproduction.
type Fig1Result struct {
	Points []Fig1Point
	// Phase boundaries (QPS at which the system transitions).
	HardwareLimitQPS float64 // end of phase 1
	Phase2LimitQPS   float64 // end of phase 2 (task-1 accuracy still maximal)
	MaxCapacityQPS   float64 // end of phase 3 (largest fully-served demand)
	// Headline ratios the paper reports.
	Phase2CapacityGain float64 // Phase2Limit / HardwareLimit (paper: ≈2.7×)
	TotalCapacityGain  float64 // MaxCapacity / HardwareLimit (paper: ≈3.15×)
	AccuracyAtPhase2   float64 // system accuracy at the end of phase 2 (paper: ≈0.87)
}

// Figure1 sweeps demand over the two-task traffic chain on a fixed cluster
// and reports how Loki's Resource Manager moves through the three scaling
// phases of Figure 1.
func Figure1(servers int, sloSec float64, steps int) (*Fig1Result, error) {
	g := profiles.TrafficChain()
	// Capacity probes prefer exhaustive solves: no stall cutoff.
	pool := RunConfig{Servers: servers, SolveTimeLimit: time.Second, DisableStall: true}.pool()
	alloc, err := stack.New(pool).Allocator(g, sloSec)
	if err != nil {
		return nil, err
	}

	res := &Fig1Result{}
	maxDemand := 2200.0
	for i := 0; i <= steps; i++ {
		d := maxDemand * float64(i) / float64(steps)
		t0 := time.Now()
		plan, err := alloc.Allocate(d)
		if err != nil {
			return nil, err
		}
		pt := Fig1Point{
			DemandQPS:   d,
			Mode:        plan.Mode,
			Servers:     plan.ServersUsed,
			Accuracy:    plan.ExpectedAccuracy,
			ServedFrac:  plan.ServedFraction,
			SolveMillis: float64(time.Since(t0).Microseconds()) / 1000,
		}
		pt.Task1Acc, pt.Task2Acc = taskAccuracies(plan)
		switch {
		case plan.Mode == core.HardwareScaling:
			pt.Phase = 1
			pt.PhaseComment = "hardware scaling, max accuracy"
		case plan.Mode == core.AccuracyScaling && pt.Task1Acc > 0.995:
			pt.Phase = 2
			pt.PhaseComment = "accuracy scaling on task 2 only"
		case plan.Mode == core.AccuracyScaling:
			pt.Phase = 3
			pt.PhaseComment = "accuracy scaling on both tasks"
		default:
			pt.Phase = 4
			pt.PhaseComment = "saturated"
		}
		res.Points = append(res.Points, pt)

		if pt.Phase == 1 {
			res.HardwareLimitQPS = d
		}
		if pt.Phase <= 2 {
			res.Phase2LimitQPS = d
			res.AccuracyAtPhase2 = pt.Accuracy
		}
		if plan.Mode != core.Saturated {
			res.MaxCapacityQPS = d
		}
	}
	if res.HardwareLimitQPS > 0 {
		res.Phase2CapacityGain = res.Phase2LimitQPS / res.HardwareLimitQPS
		res.TotalCapacityGain = res.MaxCapacityQPS / res.HardwareLimitQPS
	}
	return res, nil
}

// taskAccuracies returns the flow-weighted mean accuracy of task 0 and of
// the final task across the plan's path flows.
func taskAccuracies(plan *core.Plan) (t0, tLast float64) {
	w0, wL, f := 0.0, 0.0, 0.0
	for _, pf := range plan.PathFlows {
		if len(pf.Tasks) == 0 {
			continue
		}
		f += pf.Fraction
		w0 += pf.Fraction * variantAccOf(plan, pf.Tasks[0], pf.Variants[0])
		last := len(pf.Tasks) - 1
		wL += pf.Fraction * variantAccOf(plan, pf.Tasks[last], pf.Variants[last])
	}
	if f > 0 {
		return w0 / f, wL / f
	}
	return 1, 1
}

func variantAccOf(plan *core.Plan, task pipeline.TaskID, variant int) float64 {
	for _, a := range plan.Assignments {
		if a.Task == task && a.Variant == variant {
			return a.Accuracy
		}
	}
	return 1
}

// FormatFigure1 renders the sweep as the figure's series.
func FormatFigure1(r *Fig1Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %7s %8s %9s %9s %9s %7s  %s\n",
		"demand", "servers", "acc", "task1acc", "task2acc", "served", "phase", "regime")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10.0f %7d %8.4f %9.4f %9.4f %9.3f %7d  %s\n",
			p.DemandQPS, p.Servers, p.Accuracy, p.Task1Acc, p.Task2Acc, p.ServedFrac, p.Phase, p.PhaseComment)
	}
	fmt.Fprintf(&b, "\nhardware-scaling limit : %6.0f QPS (paper: ≈560)\n", r.HardwareLimitQPS)
	fmt.Fprintf(&b, "phase-2 limit          : %6.0f QPS (paper: ≈1550)\n", r.Phase2LimitQPS)
	fmt.Fprintf(&b, "max capacity           : %6.0f QPS (paper: ≈1765)\n", r.MaxCapacityQPS)
	fmt.Fprintf(&b, "phase-2 capacity gain  : %6.2f×   (paper: ≈2.7×)\n", r.Phase2CapacityGain)
	fmt.Fprintf(&b, "total capacity gain    : %6.2f×   (paper: ≈3.15×)\n", r.TotalCapacityGain)
	fmt.Fprintf(&b, "accuracy at phase-2 end: %6.1f%%  drop %4.1f%% (paper: ≈13%%)\n",
		100*r.AccuracyAtPhase2, 100*(1-r.AccuracyAtPhase2))
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3: accuracy-throughput tradeoff of the EfficientNet family.
// ---------------------------------------------------------------------------

// Fig3Row is one EfficientNet variant's profile point.
type Fig3Row struct {
	Variant     string
	Accuracy    float64 // raw (top-1-equivalent)
	MaxQPS      float64
	BestBatch   int
	LatencyB1Ms float64
}

// Figure3 regenerates the accuracy-throughput tradeoff (profiled on the
// simulated device instead of a V100).
func Figure3() []Fig3Row {
	pr := &profiles.Profiler{}
	var rows []Fig3Row
	for _, v := range profiles.EfficientNet() {
		v := v
		p := pr.ProfileVariant(&v, profiles.Batches)
		q, b := p.MaxQPS()
		l1, _ := p.Latency(1)
		rows = append(rows, Fig3Row{
			Variant:     v.Name,
			Accuracy:    v.RawAccuracy,
			MaxQPS:      q,
			BestBatch:   b,
			LatencyB1Ms: l1 * 1e3,
		})
	}
	return rows
}

// FormatFigure3 renders the tradeoff table.
func FormatFigure3(rows []Fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %12s %10s %14s\n", "variant", "top1(%)", "max qps", "batch", "latency@1 (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.1f %12.1f %10d %14.2f\n", r.Variant, r.Accuracy, r.MaxQPS, r.BestBatch, r.LatencyB1Ms)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 5 & 6: end-to-end comparisons against InferLine and Proteus.
// ---------------------------------------------------------------------------

// ComparisonResult bundles the three systems' runs on one pipeline.
type ComparisonResult struct {
	Pipeline  string
	Loki      *RunResult
	InferLine *RunResult
	Proteus   *RunResult

	// Headline numbers (paper: ≥10× fewer violations than Proteus, 2.5-2.7×
	// capacity vs InferLine). ServerGainVsProteus is Proteus's MinServers
	// over Loki's. Proteus never releases a server, so its MinServers is the
	// whole pool, and the ratio is not the paper's off-peak server reduction
	// (≈2.67×).
	ViolationGainVsProteus  float64
	ServerGainVsProteus     float64
	CapacityGainVsInferLine float64
}

// CompareConfig parameterizes Figure 5/6 runs.
type CompareConfig struct {
	TrafficNotSocial bool
	Servers          int
	SLOSec           float64
	Seed             int64
	TraceSteps       int
}

// Comparison runs Loki, InferLine-like, and Proteus-like on the same trace
// and substrate (Figure 5 for the traffic pipeline, Figure 6 for social
// media).
func Comparison(cfg CompareConfig) (*ComparisonResult, error) {
	if cfg.TraceSteps == 0 {
		cfg.TraceSteps = 144
	}
	const stepSec = 10

	// Scale the trace so the peak lands beyond the hardware-scaling limit but
	// within accuracy-scaling capacity — the regime where the three systems
	// differ (the vertical lines in Figures 5 and 6). The social pipeline's
	// variant families span a wider throughput range, so its peak sits
	// higher.
	g := profiles.SocialMedia()
	tr := trace.TwitterLike(cfg.Seed, cfg.TraceSteps, stepSec).ScaleToPeak(1600)
	if cfg.TrafficNotSocial {
		g = profiles.TrafficTree()
		tr = trace.AzureLike(cfg.Seed, cfg.TraceSteps, stepSec).ScaleToPeak(1100)
	}

	out := &ComparisonResult{Pipeline: g.Name}
	for _, ap := range []Approach{Loki, InferLine, Proteus} {
		res, err := Run(RunConfig{
			Graph: g, Trace: tr, Approach: ap,
			Servers: cfg.Servers, SLOSec: cfg.SLOSec, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ap, err)
		}
		switch ap {
		case Loki:
			out.Loki = res
		case InferLine:
			out.InferLine = res
		case Proteus:
			out.Proteus = res
		}
	}

	if v := out.Loki.Summary.ViolationRatio; v > 0 {
		out.ViolationGainVsProteus = out.Proteus.Summary.ViolationRatio / v
	}
	if s := out.Loki.Summary.MinServers; s > 0 {
		out.ServerGainVsProteus = out.Proteus.Summary.MinServers / s
	}
	// Capacity gain vs InferLine: the demand at which each system's
	// violation ratio crosses 10%, read from the demand-vs-violation series.
	lokiCap := servedCapacity(out.Loki.Series)
	inferCap := servedCapacity(out.InferLine.Series)
	if inferCap > 0 {
		out.CapacityGainVsInferLine = lokiCap / inferCap
	}
	return out, nil
}

// servedCapacity estimates the largest demand a run served with a bucket
// violation ratio below 10%. Buckets that merely drained leftover work
// (served far below offered demand) do not count.
func servedCapacity(series []metrics.Point) float64 {
	capQPS := 0.0
	for _, p := range series {
		if p.ViolationRatio < 0.10 && p.ServedQPS >= 0.5*p.DemandQPS && p.DemandQPS > capQPS {
			capQPS = p.DemandQPS
		}
	}
	return capQPS
}

// FormatComparison renders Figure 5/6 as summary plus aligned series.
func FormatComparison(r *ComparisonResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: %s\n\n", r.Pipeline)
	fmt.Fprintf(&b, "%-11s %9s %9s %9s %9s %9s\n", "system", "acc", "slo-viol", "servers", "min-srv", "rerouted")
	for _, rr := range []*RunResult{r.Loki, r.InferLine, r.Proteus} {
		s := rr.Summary
		fmt.Fprintf(&b, "%-11s %9.4f %9.4f %9.1f %9.0f %9d\n",
			rr.Approach.String(), s.MeanAccuracy, s.ViolationRatio, s.MeanServers, s.MinServers, rr.Rerouted)
	}
	fmt.Fprintf(&b, "\nSLO-violation reduction vs Proteus : %5.1f× (paper: ≥10×)\n", r.ViolationGainVsProteus)
	fmt.Fprintf(&b, "min-srv ratio Proteus / Loki        : %5.2f× (Proteus holds the whole pool; paper's off-peak reduction: ≈2.67×)\n", r.ServerGainVsProteus)
	fmt.Fprintf(&b, "capacity gain vs InferLine          : %5.2f× (paper: ≈2.5-2.7×)\n", r.CapacityGainVsInferLine)
	for _, rr := range []*RunResult{r.Loki, r.InferLine, r.Proteus} {
		fmt.Fprintf(&b, "\n--- %s timeseries ---\n%s", rr.Approach, metrics.FormatSeries(rr.Series))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7: load balancer / early-dropping ablation.
// ---------------------------------------------------------------------------

// Fig7Row is one ablation arm.
type Fig7Row struct {
	Policy         string
	ViolationRatio float64
	Accuracy       float64
	Dropped        int64
	Rerouted       int64
}

// Figure7 compares the four §5.2 mechanisms under a bursty overload that
// stresses the latency budgets (the regime the ablation isolates).
func Figure7(seed int64) ([]Fig7Row, error) {
	g := profiles.TrafficTree()
	// A plateau near capacity with a burst well above it: early dropping
	// only matters when some requests genuinely cannot make their SLOs, and
	// the differences between the mechanisms show at the overload boundary.
	tr := &trace.Trace{Interval: 5, QPS: make([]float64, 72)}
	for i := range tr.QPS {
		switch {
		case i < 24:
			tr.QPS[i] = 1100
		case i < 40:
			tr.QPS[i] = 1600
		default:
			tr.QPS[i] = 1100
		}
	}
	pols := []policy.Policy{policy.NoDrop{}, policy.LastTask{}, policy.PerTask{}, policy.Opportunistic{}}
	var rows []Fig7Row
	for _, pol := range pols {
		res, err := Run(RunConfig{
			Graph: g, Trace: tr, Approach: Loki, Policy: pol, Seed: seed,
			// Deep queues isolate the policies themselves: with shallow
			// queues the overflow cap acts as an implicit dropper and
			// masks the no-early-dropping arm's cost.
			QueueFactor: 8,
			// The four arms differ by fractions of a percent; a roomy solve
			// budget (with the stall cutoff off, so no wall-clock boundary
			// can cut a solve short under load) lets every MILP reach its
			// incumbent regardless of machine speed, keeping the
			// comparison deterministic.
			SolveTimeLimit: 2 * time.Second,
			DisableStall:   true,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			Policy:         pol.Name(),
			ViolationRatio: res.Summary.ViolationRatio,
			Accuracy:       res.Summary.MeanAccuracy,
			Dropped:        res.Dropped,
			Rerouted:       res.Rerouted,
		})
	}
	return rows, nil
}

// FormatFigure7 renders the ablation.
func FormatFigure7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %10s %10s %10s\n", "policy", "slo-viol", "accuracy", "dropped", "rerouted")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10.4f %10.4f %10d %10d\n", r.Policy, r.ViolationRatio, r.Accuracy, r.Dropped, r.Rerouted)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8: SLO sensitivity.
// ---------------------------------------------------------------------------

// Fig8Row is one SLO setting.
type Fig8Row struct {
	SLOMs          float64
	AvgAccuracy    float64
	MaxAccDrop     float64 // degradation from max at peak demand
	ViolationRatio float64
	Feasible       bool
}

// Figure8 sweeps the pipeline latency SLO for the traffic-analysis pipeline
// (paper: 200-400 ms, infeasible below 200 ms). This repo's synthetic
// variants have shorter batch-1 latencies than the paper's models, so the
// cliff sits near 35 ms and the default sweep's 150 ms row is served.
func Figure8(seed int64, sloMs []float64) ([]Fig8Row, error) {
	if len(sloMs) == 0 {
		sloMs = []float64{150, 200, 250, 300, 350, 400}
	}
	g := profiles.TrafficTree()
	tr := trace.AzureLike(seed, 120, 5).ScaleToPeak(1100)
	var rows []Fig8Row
	for _, ms := range sloMs {
		res, err := Run(RunConfig{
			Graph: g, Trace: tr, Approach: Loki, Seed: seed, SLOSec: ms / 1000,
		})
		if err != nil {
			// No config path fits: below ≈35 ms even the fastest variants'
			// batch-1 latencies exceed the halved compute budget (the
			// paper's cliff is at 200 ms).
			rows = append(rows, Fig8Row{SLOMs: ms, Feasible: false})
			continue
		}
		s := res.Summary
		rows = append(rows, Fig8Row{
			SLOMs:          ms,
			AvgAccuracy:    s.MeanAccuracy,
			MaxAccDrop:     1 - s.MinAccuracy,
			ViolationRatio: s.ViolationRatio,
			Feasible:       true,
		})
	}
	return rows, nil
}

// FormatFigure8 renders the sweep.
func FormatFigure8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %12s %14s %12s\n", "slo(ms)", "avg-acc(%)", "max-drop(%)", "slo-viol")
	for _, r := range rows {
		if !r.Feasible {
			fmt.Fprintf(&b, "%8.0f %12s %14s %12s\n", r.SLOMs, "infeasible", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%8.0f %12.2f %14.2f %12.4f\n", r.SLOMs, 100*r.AvgAccuracy, 100*r.MaxAccDrop, r.ViolationRatio)
	}
	return b.String()
}
