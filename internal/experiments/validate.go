package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"loki/internal/metrics"
	"loki/internal/profiles"
	"loki/internal/stack"
	"loki/internal/trace"
)

// ValidationResult compares the discrete-event simulator against the
// wall-clock engine on the same workload (§6.2's "validating the simulator").
type ValidationResult struct {
	Sim  metrics.Summary
	Live metrics.Summary

	AccuracyDeltaPct  float64 // |sim − live| accuracy, percent
	ViolationDeltaPct float64 // |sim − live| violation ratio, percentage points
	ServersDeltaPct   float64 // |sim − live| mean servers, percent of cluster
	WallTime          time.Duration
}

// ValidateConfig parameterizes the validation run.
type ValidateConfig struct {
	Seed       int64
	TraceSteps int
	StepSec    float64
}

// validatePeakQPS is the validation trace's peak demand.
const validatePeakQPS = 450

// validateTimeScale compresses the live run's wall time to half the trace's.
// That keeps scheduler jitter and controller wall time small relative to
// scaled time; stronger compression inflates the live engine's violations
// artificially.
const validateTimeScale = 0.5

// Validate runs the identical trace through both engines with the same
// controller configuration and reports the metric deltas. The paper observed
// 1.2% / 1.8% / 1.5% average differences. Both kinds here are one serving
// engine with the same seeds, so the deltas measure control timing alone: on
// the wall-clock kind a plan lands as late as its solve takes in real time,
// while the simulator solves in zero virtual time. Both serve the paper's
// operating point: stack.DefaultServers servers at stack.DefaultSLOSec.
func Validate(cfg ValidateConfig) (*ValidationResult, error) {
	if cfg.TraceSteps == 0 {
		// A two-minute scaled day: long enough that controller transients
		// do not dominate either engine's numbers.
		cfg.TraceSteps = 24
	}
	if cfg.StepSec == 0 {
		cfg.StepSec = 5
	}
	g := profiles.TrafficTree()
	tr := trace.AzureLike(cfg.Seed, cfg.TraceSteps, cfg.StepSec).ScaleToPeak(validatePeakQPS)

	start := time.Now()

	// The two runs differ only in the engine.MultiEngine kind; every other
	// knob is identical.
	simRes, err := Run(RunConfig{
		Graph: g, Trace: tr, Approach: Loki, Backend: Simulated, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	liveRes, err := Run(RunConfig{
		Graph: g, Trace: tr, Approach: Loki, Backend: Wallclock, Seed: cfg.Seed,
		TimeScale: validateTimeScale,
	})
	if err != nil {
		return nil, err
	}

	res := &ValidationResult{
		Sim:      simRes.Summary,
		Live:     liveRes.Summary,
		WallTime: time.Since(start),
	}
	res.AccuracyDeltaPct = 100 * math.Abs(res.Sim.MeanAccuracy-res.Live.MeanAccuracy)
	res.ViolationDeltaPct = 100 * math.Abs(res.Sim.ViolationRatio-res.Live.ViolationRatio)
	res.ServersDeltaPct = 100 * math.Abs(res.Sim.MeanServers-res.Live.MeanServers) / stack.DefaultServers
	return res, nil
}

// FormatValidation renders the §6.2 comparison.
func FormatValidation(r *ValidationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %12s\n", "metric", "simulator", "prototype")
	fmt.Fprintf(&b, "%-22s %12.4f %12.4f\n", "system accuracy", r.Sim.MeanAccuracy, r.Live.MeanAccuracy)
	fmt.Fprintf(&b, "%-22s %12.4f %12.4f\n", "slo violation ratio", r.Sim.ViolationRatio, r.Live.ViolationRatio)
	fmt.Fprintf(&b, "%-22s %12.1f %12.1f\n", "mean active servers", r.Sim.MeanServers, r.Live.MeanServers)
	fmt.Fprintf(&b, "\ndeltas: accuracy %.2f%% (paper 1.2%%), violations %.2fpp (paper 1.8%%), servers %.2f%% (paper 1.5%%)\n",
		r.AccuracyDeltaPct, r.ViolationDeltaPct, r.ServersDeltaPct)
	fmt.Fprintf(&b, "wall time: %v\n", r.WallTime)
	return b.String()
}
