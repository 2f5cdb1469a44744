// Package experiments assembles full serving runs — pipelines, workload
// traces, planners (Loki or a baseline), one shared engine and controller —
// and the per-figure drivers that regenerate every table and figure of the
// paper's evaluation (§6). Every driver that serves traffic, from the paper
// figures to the chaos, forecast, multi-tenant and ingress experiments, goes
// through one assembly (serve), so all approaches and scenarios run on the
// identical serving substrate; they differ only in their tenants and
// pool-level knobs. The CLIs in cmd/ and the benchmarks in bench_test.go are
// thin wrappers over this package.
package experiments

import (
	"fmt"
	"time"

	"loki/internal/baselines"
	"loki/internal/core"
	"loki/internal/engine"
	"loki/internal/fault"
	"loki/internal/forecast"
	"loki/internal/ingress"
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
	// Wallclock runs the same simulator paced by the wall clock, taking
	// TimeScale × trace-duration of wall time.
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
// prototype. The pipeline is the one tenant of the stack serve assembles, the
// same stack loki.System serves on; only the engine kind differs between the
// backends.
func Run(cfg RunConfig) (*RunResult, error) {
	s, err := serve(cfg, []tenantSpec{{
		name: cfg.Graph.Name, graph: cfg.Graph, trace: cfg.Trace,
		approach: cfg.Approach, policy: cfg.Policy,
	}}, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	st := s.stats[0]
	return &RunResult{
		Name:      fmt.Sprintf("%s/%s", cfg.Graph.Name, cfg.Approach),
		Approach:  cfg.Approach,
		Summary:   s.cols[0].Summarize(),
		Series:    s.cols[0].Series(),
		Allocates: s.ctrl.Allocates(),
		Injected:  st.Injected,
		Completed: st.Completed,
		Dropped:   st.Dropped,
		Rerouted:  st.Rerouted,
		Swaps:     st.Swaps,
	}, nil
}

// tenantSpec is one pipeline of a serving run: what it serves, how it is
// planned, and what guards its front door.
type tenantSpec struct {
	name     string
	graph    *pipeline.Graph
	trace    *trace.Trace
	approach Approach
	policy   policy.Policy // nil means opportunistic rerouting
	share    float64       // guaranteed pool fraction under contention
	tier     int
	// forecaster, when non-nil, has the tenant plan for the demand it
	// predicts horizonSec ahead.
	forecaster forecast.Forecaster
	horizonSec float64
	// admission arms a token-bucket front door that follows the granted
	// capacity; demandCap, when positive, caps the demand the tenant plans
	// for.
	admission bool
	demandCap float64
}

// served is what a serve call leaves behind: each tenant's collector and
// request totals, in tenant order, and the controller that planned the run.
type served struct {
	cols  []*metrics.Collector
	stats []engine.Stats
	ctrl  *core.MultiController
}

// planFor profiles g for cfg's pool and builds its Metadata Store and the
// approach's planner (see NewPlanner).
func (cfg *RunConfig) planFor(g *pipeline.Graph, ap Approach) (*core.MetadataStore, core.Planner, *baselines.Proteus, error) {
	pr := &profiles.Profiler{Jitter: cfg.ProfileJitter, Seed: cfg.Seed}
	var meta *core.MetadataStore
	if len(cfg.Classes) > 0 {
		meta = core.NewMetadataStoreHetero(g, cfg.Classes,
			pr.ProfileGraphClasses(g, profiles.Batches, cfg.Classes), cfg.SLOSec, profiles.Batches)
	} else {
		meta = core.NewMetadataStore(g, pr.ProfileGraph(g, profiles.Batches), cfg.SLOSec, profiles.Batches)
	}
	planner, proteus, err := NewPlanner(ap, meta, core.AllocatorOptions{
		Servers:         cfg.Servers,
		NetLatencySec:   cfg.NetLatencySec,
		KeepWarm:        true,
		Headroom:        cfg.Headroom,
		MinPathAccuracy: cfg.MinAccuracy,
		SolveTimeLimit:  cfg.SolveTimeLimit,
		DisableStall:    cfg.DisableStall,
	})
	return meta, planner, proteus, err
}

// serve is the one serving stack behind every experiment. cfg carries the
// pool-level knobs (its Graph, Trace, Approach and Policy are the tenants'
// business); each tenant gets a Metadata Store, a planner and a collector,
// all tenants share one MultiEngine of cfg.Backend and one MultiController.
// The stack is pre-warmed at each trace's opening rate, fed every trace
// concurrently and drained. faults, onFault and onGrants are optional
// pool-level hooks: a fault schedule, its event observer and the
// controller's per-allocation grant observer.
func serve(cfg RunConfig, tenants []tenantSpec, faults *fault.Schedule,
	onFault func(timeSec float64, desc string), onGrants func(step int, grants []int)) (*served, error) {
	cfg.defaults()
	mcfg := engine.MultiConfig{
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
		Faults:         faults,
		OnFault:        onFault,
	}
	var names []string
	var costs []float64
	for _, cl := range cfg.Classes {
		names = append(names, cl.Name)
		costs = append(costs, cl.CostPerHour)
	}
	s := &served{}
	var ctenants []*core.Tenant
	var traces []*trace.Trace
	for _, ts := range tenants {
		if err := ts.graph.Validate(); err != nil {
			return nil, err
		}
		meta, planner, proteus, err := cfg.planFor(ts.graph, ts.approach)
		if err != nil {
			return nil, fmt.Errorf("experiments: tenant %q: %w", ts.name, err)
		}
		if ts.forecaster != nil {
			meta.SetForecaster(ts.forecaster)
		}
		col := metrics.NewCollector(cfg.BucketSec, cfg.Servers)
		if len(cfg.Classes) > 0 {
			col.SetClasses(names, costs)
		}
		tcfg := engine.TenantConfig{Meta: meta, Policy: ts.policy, Collector: col, SLOSec: cfg.SLOSec, Tier: ts.tier}
		// Proteus's pipeline-agnostic per-task scaling is only legal on a
		// pool nobody shares; Run is its one caller.
		if proteus != nil {
			tcfg.OnTaskDemand = proteus.ObserveTaskDemand
		}
		if ts.admission {
			// Granted routes carry the 0.30 route headroom; admit at the
			// demand the plan was sized for, not its throughput ceiling.
			tcfg.Admission = ingress.NewAdmission(ingress.Config{SLOSec: cfg.SLOSec, TargetUtilization: 1 / 1.30})
		}
		mcfg.Tenants = append(mcfg.Tenants, tcfg)
		ctenants = append(ctenants, &core.Tenant{
			Name: ts.name, Tier: ts.tier, Meta: meta, Alloc: planner,
			MinShare:           ts.share,
			RouteHeadroom:      cfg.Headroom,
			ForecastHorizonSec: ts.horizonSec,
			DemandCapQPS:       ts.demandCap,
		})
		s.cols = append(s.cols, col)
		traces = append(traces, ts.trace)
	}
	eng, err := engine.NewMulti(cfg.Backend, mcfg)
	if err != nil {
		return nil, err
	}
	for i, t := range ctenants {
		t.Publish = func(plan *core.Plan, routes *core.Routes) { eng.ApplyPlan(i, plan, routes) }
	}
	if s.ctrl, err = core.NewMultiController(cfg.Servers, ctenants); err != nil {
		return nil, err
	}
	s.ctrl.OnGrants = onGrants

	// Pre-warm: allocate for each trace's opening demand before traffic.
	for i, t := range ctenants {
		t.Meta.ObserveDemand(traces[i].QPS[0])
	}
	if err := s.ctrl.Step(true); err != nil {
		return nil, err
	}
	if err := eng.Start(s.ctrl); err != nil {
		return nil, err
	}
	feedErr := eng.FeedAll(traces)
	stopErr := eng.Stop()
	if feedErr != nil {
		return nil, feedErr
	}
	if stopErr != nil {
		return nil, stopErr
	}
	for i := range tenants {
		s.stats = append(s.stats, eng.Stats(i))
	}
	return s, nil
}

// windowSum totals a series' buckets whose start lies in [start, end).
// Arrivals and violations are both attributed by arrival time —
// Point.Violations charges a late or dropped request to the bucket it
// arrived in — so ratios of the two are exact and request-weighted: a
// request that arrives at the crest but completes late just past the window
// edge still counts against the window it arrived in.
type windowSum struct {
	arrivals, violations, shed int
	buckets                    int
	goodputQPS                 float64 // summed over the buckets
}

func window(series []metrics.Point, start, end float64) windowSum {
	var w windowSum
	for _, p := range series {
		if p.TimeSec < start || p.TimeSec >= end {
			continue
		}
		w.arrivals += p.Arrivals
		w.violations += p.Violations
		w.shed += p.Shed
		w.goodputQPS += p.GoodputQPS
		w.buckets++
	}
	return w
}

// attainment is the SLO attainment of the requests that arrived in the
// window (1 when none did).
func (w windowSum) attainment() float64 {
	if w.arrivals == 0 {
		return 1
	}
	return 1 - float64(w.violations)/float64(w.arrivals)
}

// meanGoodput is the mean per-bucket rate of on-time completions.
func (w windowSum) meanGoodput() float64 {
	if w.buckets == 0 {
		return 0
	}
	return w.goodputQPS / float64(w.buckets)
}
