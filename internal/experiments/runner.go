// Package experiments assembles full serving runs — pipeline, workload
// trace, controller (Loki or a baseline), cluster — and the per-figure
// drivers that regenerate every table and figure of the paper's evaluation
// (§6). The CLIs in cmd/ and the benchmarks in bench_test.go are thin
// wrappers over this package.
package experiments

import (
	"fmt"
	"time"

	"loki/internal/baselines"
	"loki/internal/core"
	"loki/internal/engine"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// Approach selects the resource-management strategy under test.
type Approach int

// The three systems compared in §6.2.
const (
	Loki      Approach = iota // hardware + pipeline-aware accuracy scaling
	InferLine                 // hardware scaling only (fixed variants)
	Proteus                   // pipeline-agnostic per-task accuracy scaling
)

// String names the approach.
func (a Approach) String() string {
	switch a {
	case Loki:
		return "loki"
	case InferLine:
		return "inferline"
	case Proteus:
		return "proteus"
	default:
		return "unknown"
	}
}

// Backend selects the serving substrate a run executes on. Both are
// engine.MultiEngine kinds; the run wiring is identical.
type Backend = engine.Kind

const (
	// Simulated runs on the discrete-event simulator in virtual time
	// (the default, and what every figure experiment uses).
	Simulated = engine.KindSimulated
	// Wallclock runs on the real-time goroutine engine (internal/live),
	// taking TimeScale × trace-duration of wall time.
	Wallclock = engine.KindWallclock
)

// RunConfig describes one end-to-end serving run.
type RunConfig struct {
	Graph    *pipeline.Graph
	Trace    *trace.Trace
	Approach Approach
	Backend  Backend
	Policy   policy.Policy // nil means opportunistic rerouting (Loki default)

	Servers int
	// Classes partitions the cluster into hardware classes (nil = one
	// homogeneous "default" class of Servers workers); when set, Servers is
	// derived from the class counts.
	Classes        []profiles.Class
	SLOSec         float64
	NetLatencySec  float64
	Seed           int64
	RMIntervalSec  float64 // Resource Manager period (paper: 10 s)
	LBIntervalSec  float64 // Load Balancer refresh period
	BucketSec      float64 // metrics bucket width
	SwapLatencySec float64 // model-load pause on reconfiguration
	ExecJitter     float64 // relative execution-latency noise
	Headroom       float64 // demand over-provisioning factor
	QueueFactor    float64 // per-worker queue cap multiplier (see cluster.Options)
	MinAccuracy    float64 // floor on end-to-end path accuracy (0 = none)
	SolveTimeLimit time.Duration
	// DisableStall turns off the planner's wall-clock stall cutoff so
	// every MILP runs its full budget: the choice for experiments that
	// pick a roomy SolveTimeLimit precisely so results do not depend on
	// machine load.
	DisableStall  bool
	ProfileJitter float64 // measurement noise in the Model Profiler
	TimeScale     float64 // wall-time compression (Wallclock backend only)
}

func (cfg *RunConfig) defaults() {
	if len(cfg.Classes) > 0 {
		cfg.Servers = profiles.TotalCount(cfg.Classes)
	}
	if cfg.Servers == 0 {
		cfg.Servers = 20
	}
	if cfg.SLOSec == 0 {
		cfg.SLOSec = 0.250
	}
	if cfg.NetLatencySec == 0 {
		cfg.NetLatencySec = 0.002
	}
	// RMIntervalSec, LBIntervalSec, and Policy default inside
	// engine.NewMulti — the one authoritative site for the engine-level
	// knobs.
	if cfg.BucketSec == 0 {
		cfg.BucketSec = 30
	}
	if cfg.SolveTimeLimit == 0 {
		cfg.SolveTimeLimit = 500 * time.Millisecond
	}
	if cfg.Headroom == 0 {
		// Provisioning 30% above the demand estimate keeps per-worker
		// utilization near 0.77, where batch-queue waits stay inside the
		// SLO/2 allowance. With the calibrated profiles this also puts the
		// hardware-scaling limit of the traffic pipeline at ≈560 QPS on 20
		// servers, matching Figure 1.
		cfg.Headroom = 0.30
	}
}

// RunResult is the outcome of one run.
type RunResult struct {
	Name      string
	Approach  Approach
	Summary   metrics.Summary
	Series    []metrics.Point
	Allocates int // MILP invocations (plan-cache misses)

	Injected  int64
	Completed int64
	Dropped   int64
	Rerouted  int64
	Swaps     int64
}

// NewPlanner builds the Resource Manager planner for an approach: Loki's
// MILP allocator or one of the baselines. The returned Proteus pointer is
// non-nil only for the Proteus approach, whose planner additionally needs
// per-task demand observations (wire it to the engine's OnTaskDemand hook).
func NewPlanner(ap Approach, meta *core.MetadataStore, aopts core.AllocatorOptions) (core.Planner, *baselines.Proteus, error) {
	switch ap {
	case Loki:
		a, err := core.NewAllocator(meta, aopts)
		if err != nil {
			return nil, nil, err
		}
		return a, nil, nil
	case InferLine:
		b, err := baselines.NewInferLine(meta, aopts)
		if err != nil {
			return nil, nil, err
		}
		return b, nil, nil
	case Proteus:
		p, err := baselines.NewProteus(meta, aopts)
		if err != nil {
			return nil, nil, err
		}
		return p, p, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown approach %d", ap)
	}
}

// Run executes one serving run on the configured backend — the
// discrete-event simulator in virtual time by default, or the wall-clock
// prototype. The pipeline is the one tenant of a MultiController on a
// one-tenant MultiEngine, the same stack loki.System serves on; only the
// engine kind differs between the backends.
func Run(cfg RunConfig) (*RunResult, error) {
	cfg.defaults()
	if err := cfg.Graph.Validate(); err != nil {
		return nil, err
	}

	pr := &profiles.Profiler{Jitter: cfg.ProfileJitter, Seed: cfg.Seed}
	var meta *core.MetadataStore
	if len(cfg.Classes) > 0 {
		meta = core.NewMetadataStoreHetero(cfg.Graph, cfg.Classes,
			pr.ProfileGraphClasses(cfg.Graph, profiles.Batches, cfg.Classes), cfg.SLOSec, profiles.Batches)
	} else {
		meta = core.NewMetadataStore(cfg.Graph, pr.ProfileGraph(cfg.Graph, profiles.Batches),
			cfg.SLOSec, profiles.Batches)
	}

	aopts := core.AllocatorOptions{
		Servers:         cfg.Servers,
		NetLatencySec:   cfg.NetLatencySec,
		KeepWarm:        true,
		Headroom:        cfg.Headroom,
		MinPathAccuracy: cfg.MinAccuracy,
		SolveTimeLimit:  cfg.SolveTimeLimit,
		DisableStall:    cfg.DisableStall,
	}
	planner, proteus, err := NewPlanner(cfg.Approach, meta, aopts)
	if err != nil {
		return nil, err
	}

	col := metrics.NewCollector(cfg.BucketSec, cfg.Servers)
	if len(cfg.Classes) > 0 {
		names := make([]string, len(cfg.Classes))
		costs := make([]float64, len(cfg.Classes))
		for i, cl := range cfg.Classes {
			names[i] = cl.Name
			costs[i] = cl.CostPerHour
		}
		col.SetClasses(names, costs)
	}
	// A one-tenant pool is not shared, so Proteus's pipeline-agnostic
	// per-task scaling stays legal here.
	tcfg := engine.TenantConfig{Meta: meta, Policy: cfg.Policy, Collector: col, SLOSec: cfg.SLOSec}
	if proteus != nil {
		tcfg.OnTaskDemand = proteus.ObserveTaskDemand
	}
	eng, err := engine.NewMulti(cfg.Backend, engine.MultiConfig{
		Servers:        cfg.Servers,
		Classes:        cfg.Classes,
		NetLatencySec:  cfg.NetLatencySec,
		Seed:           cfg.Seed,
		SwapLatencySec: cfg.SwapLatencySec,
		ExecJitter:     cfg.ExecJitter,
		QueueFactor:    cfg.QueueFactor,
		RMIntervalSec:  cfg.RMIntervalSec,
		LBIntervalSec:  cfg.LBIntervalSec,
		TimeScale:      cfg.TimeScale,
		Tenants:        []engine.TenantConfig{tcfg},
	})
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewMultiController(cfg.Servers, []*core.Tenant{{
		Name: cfg.Graph.Name, Meta: meta, Alloc: planner,
		RouteHeadroom: cfg.Headroom,
		Publish: func(plan *core.Plan, routes *core.Routes) {
			eng.ApplyPlan(0, plan, routes)
		},
	}})
	if err != nil {
		return nil, err
	}

	// Pre-warm: allocate for the trace's opening demand before traffic.
	meta.ObserveDemand(cfg.Trace.QPS[0])
	if err := ctrl.Step(true); err != nil {
		return nil, err
	}

	if err := eng.Start(ctrl); err != nil {
		return nil, err
	}
	feedErr := eng.FeedAll([]*trace.Trace{cfg.Trace})
	stopErr := eng.Stop()
	if feedErr != nil {
		return nil, feedErr
	}
	if stopErr != nil {
		return nil, stopErr
	}

	st := eng.Stats(0)
	return &RunResult{
		Name:      fmt.Sprintf("%s/%s", cfg.Graph.Name, cfg.Approach),
		Approach:  cfg.Approach,
		Summary:   col.Summarize(),
		Series:    col.Series(),
		Allocates: ctrl.Allocates(),
		Injected:  st.Injected,
		Completed: st.Completed,
		Dropped:   st.Dropped,
		Rerouted:  st.Rerouted,
		Swaps:     st.Swaps,
	}, nil
}
