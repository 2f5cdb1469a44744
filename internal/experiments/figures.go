package experiments

import (
	"fmt"
	"strings"

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

// fig1Point is one demand level of the Figure 1 sweep.
type fig1Point struct {
	demandQPS    float64
	servers      int
	accuracy     float64 // expected system accuracy of the plan
	task1Acc     float64 // flow-weighted accuracy of the detection task
	task2Acc     float64 // flow-weighted accuracy of the classification task
	servedFrac   float64
	phase        int // 1 = hardware scaling, 2 = task-2 degradation, 3 = task-1 degradation
	phaseComment string
}

// fig1Result is the full Figure 1 reproduction.
type fig1Result struct {
	points []fig1Point
	// Phase boundaries (QPS at which the system transitions).
	hardwareLimitQPS float64 // end of phase 1
	phase2LimitQPS   float64 // end of phase 2 (task-1 accuracy still maximal)
	maxCapacityQPS   float64 // end of phase 3 (largest fully-served demand)
	// Headline ratios the paper reports.
	phase2CapacityGain float64 // Phase2Limit / HardwareLimit (paper: ≈2.7×)
	totalCapacityGain  float64 // MaxCapacity / HardwareLimit (paper: ≈3.15×)
	accuracyAtPhase2   float64 // system accuracy at the end of phase 2 (paper: ≈0.87)
}

// Figure1 sweeps demand over the two-task traffic chain on a fixed cluster
// and reports how Loki's Resource Manager moves through the three scaling
// phases of Figure 1.
func Figure1(servers int, sloSec float64, steps int) (*fig1Result, error) {
	g := profiles.TrafficChain()
	pool := RunConfig{Servers: servers}.pool()
	alloc, err := stack.New(pool).Allocator(g, sloSec)
	if err != nil {
		return nil, err
	}

	res := &fig1Result{}
	maxDemand := 2200.0
	for i := 0; i <= steps; i++ {
		d := maxDemand * float64(i) / float64(steps)
		plan, err := alloc.Allocate(d)
		if err != nil {
			return nil, err
		}
		pt := fig1Point{
			demandQPS:  d,
			servers:    plan.ServersUsed,
			accuracy:   plan.ExpectedAccuracy,
			servedFrac: plan.ServedFraction,
		}
		pt.task1Acc, pt.task2Acc = taskAccuracies(plan)
		switch {
		case plan.Mode == core.HardwareScaling:
			pt.phase = 1
			pt.phaseComment = "hardware scaling, max accuracy"
		case plan.Mode == core.AccuracyScaling && pt.task1Acc > 0.995:
			pt.phase = 2
			pt.phaseComment = "accuracy scaling on task 2 only"
		case plan.Mode == core.AccuracyScaling:
			pt.phase = 3
			pt.phaseComment = "accuracy scaling on both tasks"
		default:
			pt.phase = 4
			pt.phaseComment = "saturated"
		}
		res.points = append(res.points, pt)

		if pt.phase == 1 {
			res.hardwareLimitQPS = d
		}
		if pt.phase <= 2 {
			res.phase2LimitQPS = d
			res.accuracyAtPhase2 = pt.accuracy
		}
		if plan.Mode != core.Saturated {
			res.maxCapacityQPS = d
		}
	}
	if res.hardwareLimitQPS > 0 {
		res.phase2CapacityGain = res.phase2LimitQPS / res.hardwareLimitQPS
		res.totalCapacityGain = res.maxCapacityQPS / res.hardwareLimitQPS
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
func FormatFigure1(r *fig1Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %7s %8s %9s %9s %9s %7s  %s\n",
		"demand", "servers", "acc", "task1acc", "task2acc", "served", "phase", "regime")
	for _, p := range r.points {
		fmt.Fprintf(&b, "%10.0f %7d %8.4f %9.4f %9.4f %9.3f %7d  %s\n",
			p.demandQPS, p.servers, p.accuracy, p.task1Acc, p.task2Acc, p.servedFrac, p.phase, p.phaseComment)
	}
	fmt.Fprintf(&b, "\nhardware-scaling limit : %6.0f QPS (paper: ≈560)\n", r.hardwareLimitQPS)
	fmt.Fprintf(&b, "phase-2 limit          : %6.0f QPS (paper: ≈1550)\n", r.phase2LimitQPS)
	fmt.Fprintf(&b, "max capacity           : %6.0f QPS (paper: ≈1765)\n", r.maxCapacityQPS)
	fmt.Fprintf(&b, "phase-2 capacity gain  : %6.2f×   (paper: ≈2.7×)\n", r.phase2CapacityGain)
	fmt.Fprintf(&b, "total capacity gain    : %6.2f×   (paper: ≈3.15×)\n", r.totalCapacityGain)
	fmt.Fprintf(&b, "accuracy at phase-2 end: %6.1f%%  drop %4.1f%% (paper: ≈13%%)\n",
		100*r.accuracyAtPhase2, 100*(1-r.accuracyAtPhase2))
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3: accuracy-throughput tradeoff of the EfficientNet family.
// ---------------------------------------------------------------------------

// fig3Row is one EfficientNet variant's profile point.
type fig3Row struct {
	variant     string
	accuracy    float64 // raw (top-1-equivalent)
	maxQPS      float64
	bestBatch   int
	latencyB1Ms float64
}

// Figure3 regenerates the accuracy-throughput tradeoff (profiled on the
// simulated device instead of a V100).
func Figure3() []fig3Row {
	pr := &profiles.Profiler{}
	var rows []fig3Row
	for _, v := range profiles.EfficientNet() {
		v := v
		p := pr.ProfileVariant(&v, profiles.Batches)
		q, b := p.MaxQPS()
		l1, _ := p.Latency(1)
		rows = append(rows, fig3Row{
			variant:     v.Name,
			accuracy:    v.RawAccuracy,
			maxQPS:      q,
			bestBatch:   b,
			latencyB1Ms: l1 * 1e3,
		})
	}
	return rows
}

// FormatFigure3 renders the tradeoff table.
func FormatFigure3(rows []fig3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %12s %10s %14s\n", "variant", "top1(%)", "max qps", "batch", "latency@1 (ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10.1f %12.1f %10d %14.2f\n", r.variant, r.accuracy, r.maxQPS, r.bestBatch, r.latencyB1Ms)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 5 & 6: end-to-end comparisons against InferLine and Proteus.
// ---------------------------------------------------------------------------

// comparisonResult bundles the three systems' runs on one pipeline.
type comparisonResult struct {
	pipeline  string
	loki      *runResult
	inferLine *runResult
	proteus   *runResult

	// Headline numbers (paper: ≥10× fewer violations than Proteus, 2.5-2.7×
	// capacity vs InferLine). serverGainVsProteus is Proteus's MinServers
	// over Loki's. Proteus never releases a server, so its MinServers is the
	// whole pool, and the ratio is not the paper's off-peak server reduction
	// (≈2.67×).
	violationGainVsProteus  float64
	serverGainVsProteus     float64
	capacityGainVsInferLine float64
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
func Comparison(cfg CompareConfig) (*comparisonResult, error) {
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

	out := &comparisonResult{pipeline: g.Name}
	for _, ap := range []approach{Loki, inferLine, proteus} {
		res, err := Run(RunConfig{
			Graph: g, Trace: tr, Approach: ap,
			Servers: cfg.Servers, sloSec: cfg.SLOSec, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ap, err)
		}
		switch ap {
		case Loki:
			out.loki = res
		case inferLine:
			out.inferLine = res
		case proteus:
			out.proteus = res
		}
	}

	if v := out.loki.Summary.ViolationRatio; v > 0 {
		out.violationGainVsProteus = out.proteus.Summary.ViolationRatio / v
	}
	if s := out.loki.Summary.MinServers; s > 0 {
		out.serverGainVsProteus = out.proteus.Summary.MinServers / s
	}
	// Capacity gain vs InferLine: the demand at which each system's
	// violation ratio crosses 10%, read from the demand-vs-violation series.
	lokiCap := servedCapacity(out.loki.series)
	inferCap := servedCapacity(out.inferLine.series)
	if inferCap > 0 {
		out.capacityGainVsInferLine = lokiCap / inferCap
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
func FormatComparison(r *comparisonResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: %s\n\n", r.pipeline)
	fmt.Fprintf(&b, "%-11s %9s %9s %9s %9s %9s\n", "system", "acc", "slo-viol", "servers", "min-srv", "rerouted")
	for _, rr := range []*runResult{r.loki, r.inferLine, r.proteus} {
		s := rr.Summary
		fmt.Fprintf(&b, "%-11s %9.4f %9.4f %9.1f %9.0f %9d\n",
			rr.approach.String(), s.MeanAccuracy, s.ViolationRatio, s.MeanServers, s.MinServers, rr.Rerouted)
	}
	fmt.Fprintf(&b, "\nSLO-violation reduction vs Proteus : %5.1f× (paper: ≥10×)\n", r.violationGainVsProteus)
	fmt.Fprintf(&b, "min-srv ratio Proteus / Loki        : %5.2f× (Proteus holds the whole pool; paper's off-peak reduction: ≈2.67×)\n", r.serverGainVsProteus)
	fmt.Fprintf(&b, "capacity gain vs InferLine          : %5.2f× (paper: ≈2.5-2.7×)\n", r.capacityGainVsInferLine)
	for _, rr := range []*runResult{r.loki, r.inferLine, r.proteus} {
		fmt.Fprintf(&b, "\n--- %s timeseries ---\n%s", rr.approach, metrics.FormatSeries(rr.series))
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7: load balancer / early-dropping ablation.
// ---------------------------------------------------------------------------

// fig7Row is one ablation arm.
type fig7Row struct {
	policy         string
	violationRatio float64
	accuracy       float64
	dropped        int64
	rerouted       int64
}

// Figure7 compares the four §5.2 mechanisms under a bursty overload that
// stresses the latency budgets (the regime the ablation isolates).
func Figure7(seed int64) ([]fig7Row, error) {
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
	var rows []fig7Row
	for _, pol := range pols {
		res, err := Run(RunConfig{
			Graph: g, Trace: tr, Approach: Loki, policy: pol, Seed: seed,
			// Deep queues isolate the policies themselves: with shallow
			// queues the overflow cap acts as an implicit dropper and
			// masks the no-early-dropping arm's cost.
			queueFactor: 8,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, fig7Row{
			policy:         pol.Name(),
			violationRatio: res.Summary.ViolationRatio,
			accuracy:       res.Summary.MeanAccuracy,
			dropped:        res.Dropped,
			rerouted:       res.Rerouted,
		})
	}
	return rows, nil
}

// FormatFigure7 renders the ablation.
func FormatFigure7(rows []fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %10s %10s %10s\n", "policy", "slo-viol", "accuracy", "dropped", "rerouted")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10.4f %10.4f %10d %10d\n", r.policy, r.violationRatio, r.accuracy, r.dropped, r.rerouted)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8: SLO sensitivity.
// ---------------------------------------------------------------------------

// fig8Row is one SLO setting.
type fig8Row struct {
	sloMs          float64
	avgAccuracy    float64
	maxAccDrop     float64 // degradation from max at peak demand
	violationRatio float64
	feasible       bool
}

// Figure8 sweeps the pipeline latency SLO for the traffic-analysis pipeline
// (paper: 200-400 ms, infeasible below 200 ms). This repo's synthetic
// variants have shorter batch-1 latencies than the paper's models, so the
// cliff sits near 35 ms and the default sweep's 150 ms row is served.
func Figure8(seed int64, sloMs []float64) ([]fig8Row, error) {
	if len(sloMs) == 0 {
		sloMs = []float64{150, 200, 250, 300, 350, 400}
	}
	g := profiles.TrafficTree()
	tr := trace.AzureLike(seed, 120, 5).ScaleToPeak(1100)
	var rows []fig8Row
	for _, ms := range sloMs {
		res, err := Run(RunConfig{
			Graph: g, Trace: tr, Approach: Loki, Seed: seed, sloSec: ms / 1000,
		})
		if err != nil {
			// No config path fits: below ≈35 ms even the fastest variants'
			// batch-1 latencies exceed the halved compute budget (the
			// paper's cliff is at 200 ms).
			rows = append(rows, fig8Row{sloMs: ms, feasible: false})
			continue
		}
		s := res.Summary
		rows = append(rows, fig8Row{
			sloMs:          ms,
			avgAccuracy:    s.MeanAccuracy,
			maxAccDrop:     1 - s.MinAccuracy,
			violationRatio: s.ViolationRatio,
			feasible:       true,
		})
	}
	return rows, nil
}

// FormatFigure8 renders the sweep.
func FormatFigure8(rows []fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %12s %14s %12s\n", "slo(ms)", "avg-acc(%)", "max-drop(%)", "slo-viol")
	for _, r := range rows {
		if !r.feasible {
			fmt.Fprintf(&b, "%8.0f %12s %14s %12s\n", r.sloMs, "infeasible", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%8.0f %12.2f %14.2f %12.4f\n", r.sloMs, 100*r.avgAccuracy, 100*r.maxAccDrop, r.violationRatio)
	}
	return b.String()
}
