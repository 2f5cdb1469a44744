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

// validationResult compares the discrete-event simulator against the
// wall-clock engine on the same workload (§6.2's "validating the simulator").
type validationResult struct {
	sim  metrics.Summary
	live metrics.Summary

	accuracyDeltaPct  float64 // |sim − live| accuracy, percent
	violationDeltaPct float64 // |sim − live| violation ratio, percentage points
	serversDeltaPct   float64 // |sim − live| mean servers, percent of cluster
	wallTime          time.Duration
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
func Validate(cfg ValidateConfig) (*validationResult, error) {
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
		Graph: g, Trace: tr, Approach: Loki, backend: simulated, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	liveRes, err := Run(RunConfig{
		Graph: g, Trace: tr, Approach: Loki, backend: wallclock, Seed: cfg.Seed,
		timeScale: validateTimeScale,
	})
	if err != nil {
		return nil, err
	}

	res := &validationResult{
		sim:      simRes.Summary,
		live:     liveRes.Summary,
		wallTime: time.Since(start),
	}
	res.accuracyDeltaPct = 100 * math.Abs(res.sim.MeanAccuracy-res.live.MeanAccuracy)
	res.violationDeltaPct = 100 * math.Abs(res.sim.ViolationRatio-res.live.ViolationRatio)
	res.serversDeltaPct = 100 * math.Abs(res.sim.MeanServers-res.live.MeanServers) / stack.DefaultServers
	return res, nil
}

// FormatValidation renders the §6.2 comparison.
func FormatValidation(r *validationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %12s\n", "metric", "simulator", "prototype")
	fmt.Fprintf(&b, "%-22s %12.4f %12.4f\n", "system accuracy", r.sim.MeanAccuracy, r.live.MeanAccuracy)
	fmt.Fprintf(&b, "%-22s %12.4f %12.4f\n", "slo violation ratio", r.sim.ViolationRatio, r.live.ViolationRatio)
	fmt.Fprintf(&b, "%-22s %12.1f %12.1f\n", "mean active servers", r.sim.MeanServers, r.live.MeanServers)
	fmt.Fprintf(&b, "\ndeltas: accuracy %.2f%% (paper 1.2%%), violations %.2fpp (paper 1.8%%), servers %.2f%% (paper 1.5%%)\n",
		r.accuracyDeltaPct, r.violationDeltaPct, r.serversDeltaPct)
	fmt.Fprintf(&b, "wall time: %v\n", r.wallTime)
	return b.String()
}
