// Package experiments holds the runs that regenerate every table and figure
// of the paper's evaluation (§6), and the hetero, multi-tenant, forecast,
// ingress, chaos and fleet experiments. Every experiment that serves
// traffic runs through serve on the one serving stack (internal/stack) that
// the public loki package serves on, so all approaches and scenarios run on
// the substrate lokiserve runs; they differ only in their tenants and
// pool-level knobs. cmd/lokiexp drives this package, and its tests run the
// paper figures' shapes; lokiserve, lokisim and lokiload sit on the public
// package.
package experiments

import (
	"fmt"
	"time"

	"loki/internal/engine"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/stack"
	"loki/internal/trace"
)

// Approach selects the resource-management strategy under test.
type Approach = stack.Approach

// The three systems compared in §6.2.
const (
	Loki      = stack.Loki      // hardware + pipeline-aware accuracy scaling
	InferLine = stack.InferLine // hardware scaling only (fixed variants)
	Proteus   = stack.Proteus   // pipeline-agnostic per-task accuracy scaling
)

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
	Seed           int64
	BucketSec      float64 // metrics bucket width
	SwapLatencySec float64 // model-load pause on reconfiguration
	ExecJitter     float64 // relative execution-latency noise
	QueueFactor    float64 // per-worker queue cap multiplier (see cluster.Options)
	SolveTimeLimit time.Duration
	// DisableStall turns off the planner's wall-clock stall cutoff so
	// every MILP runs its full budget: the choice for experiments that
	// pick a roomy SolveTimeLimit precisely so results do not depend on
	// machine load.
	DisableStall bool
	TimeScale    float64 // wall-time compression (Wallclock backend only)
}

func (cfg *RunConfig) defaults() {
	// With Classes set, the serving stack sizes the pool from them.
	if cfg.Servers == 0 {
		cfg.Servers = stack.DefaultServers
	}
	if cfg.SLOSec == 0 {
		cfg.SLOSec = stack.DefaultSLOSec
	}
	// Policy defaults inside engine.NewMulti — the one authoritative site
	// for the engine-level knobs.
	if cfg.BucketSec == 0 {
		cfg.BucketSec = stack.DefaultBucketSec
	}
	if cfg.SolveTimeLimit == 0 {
		cfg.SolveTimeLimit = stack.DefaultSolveTimeLimit
	}
}

// RunResult is the outcome of one run.
type RunResult struct {
	Name      string
	Approach  Approach
	Summary   metrics.Summary
	Series    []metrics.Point
	Allocates int // MILP invocations (plan-cache misses)
	// Stats are the engine's request totals.
	engine.Stats
}

// Run executes one serving run on the configured backend — the
// discrete-event simulator in virtual time by default, or the wall-clock
// prototype. The pipeline is the one tenant of the stack serve builds, the
// same stack loki.System serves on; only the engine kind differs between the
// backends.
func Run(cfg RunConfig) (*RunResult, error) {
	s, err := serve(cfg, []stack.Spec{{Name: cfg.Graph.Name, Graph: cfg.Graph, Approach: cfg.Approach, Policy: cfg.Policy}},
		[]*trace.Trace{cfg.Trace}, nil)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Name:      fmt.Sprintf("%s/%s", cfg.Graph.Name, cfg.Approach),
		Approach:  cfg.Approach,
		Summary:   s.Tenants[0].Col.Summarize(),
		Series:    s.Tenants[0].Col.Series(),
		Allocates: s.Ctrl.Allocates(),
		Stats:     s.Eng.Stats(0),
	}, nil
}

// pool maps the run's pool-level knobs, defaults applied, onto the serving
// stack's. Every experiment runs at the stack's network latency and
// planning headroom.
func (cfg RunConfig) pool() stack.Pool {
	cfg.defaults()
	return stack.Pool{
		MultiConfig: engine.MultiConfig{
			Servers:        cfg.Servers,
			Classes:        cfg.Classes,
			NetLatencySec:  stack.DefaultNetLatencySec,
			Seed:           cfg.Seed,
			SwapLatencySec: cfg.SwapLatencySec,
			ExecJitter:     cfg.ExecJitter,
			QueueFactor:    cfg.QueueFactor,
			TimeScale:      cfg.TimeScale,
		},
		Backend:        cfg.Backend,
		Headroom:       stack.DefaultHeadroom,
		SolveTimeLimit: cfg.SolveTimeLimit,
		DisableStall:   cfg.DisableStall,
		BucketSec:      cfg.BucketSec,
	}
}

// serve runs every experiment on the one serving stack (internal/stack):
// build, prime at each trace's opening rate, start, feed every trace
// concurrently, and drain. cfg carries the pool-level knobs and the SLO all
// tenants share (its Graph, Trace, Approach and Policy are the tenants'
// business); hooks, when non-nil, adds pool-level hooks such as a fault
// schedule or a grant observer. Telemetry is off.
func serve(cfg RunConfig, specs []stack.Spec, traces []*trace.Trace, hooks func(*stack.Pool)) (*stack.Stack, error) {
	cfg.defaults()
	s := stack.New(cfg.pool())
	if hooks != nil {
		hooks(&s.Pool)
	}
	open := make([]float64, len(specs))
	for i, spec := range specs {
		spec.SLOSec = cfg.SLOSec
		if _, err := s.Add(spec); err != nil {
			return nil, fmt.Errorf("experiments: tenant %q: %w", spec.Name, err)
		}
		open[i] = traces[i].QPS[0]
	}
	if err := s.Build(); err != nil {
		return nil, err
	}
	if err := s.Prime(open); err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	feedErr := s.Eng.FeedAll(traces)
	if err := s.Eng.Stop(); feedErr == nil {
		feedErr = err
	}
	return s, feedErr
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
