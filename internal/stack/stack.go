// Package stack assembles Loki's serving stack, once for every caller that
// serves traffic: the public loki.MultiSystem (behind loki.System, the
// serving CLIs and the benchmarks) and the experiments behind lokiexp.
// Per tenant it runs Model Profiler → Metadata Store → planner, then builds
// the tenant's collector, admission controller and telemetry; per pool it
// builds the one engine and the joint controller, and primes and starts
// them. An experiment therefore measures exactly the stack a server runs.
package stack

import (
	"fmt"
	"time"

	"loki/internal/baselines"
	"loki/internal/core"
	"loki/internal/engine"
	"loki/internal/forecast"
	"loki/internal/ingress"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/telemetry"
)

// Approach selects a tenant's resource-management strategy.
type Approach int

// The three systems compared in §6.2.
const (
	Loki      Approach = iota // hardware + pipeline-aware accuracy scaling
	InferLine                 // hardware scaling only (fixed variants)
	Proteus                   // pipeline-agnostic per-task accuracy scaling
)

var approachNames = [...]string{Loki: "loki", InferLine: "inferline", Proteus: "proteus"}

// String names the approach.
func (a Approach) String() string {
	if a < 0 || int(a) >= len(approachNames) {
		return "unknown"
	}
	return approachNames[a]
}

// The paper's operating point (§6.1): 20 servers, a 250 ms SLO, 2 ms per
// network hop, 30-second metric buckets, a 500 ms MILP solve limit and 30 %
// provisioning headroom. Callers that take a zero value to mean "the paper's
// setting" fill it from here; each keeps its own rule for which zeros those
// are.
const (
	DefaultServers        = 20
	DefaultSLOSec         = 0.250
	DefaultNetLatencySec  = 0.002
	DefaultBucketSec      = 30
	DefaultSolveTimeLimit = 500 * time.Millisecond
	// DefaultHeadroom keeps per-worker utilization near 0.77, where
	// batch-queue waits stay inside the SLO/2 allowance. With the
	// calibrated profiles it also puts the hardware-scaling limit of the
	// traffic pipeline at ≈560 QPS on 20 servers, matching Figure 1.
	DefaultHeadroom = 0.30
)

// Pool holds the pool-level knobs of one stack. Every field is an input the
// caller resolves; beyond sizing the pool from its classes (see New), the
// stack applies no defaults of its own.
type Pool struct {
	// MultiConfig holds the engine knobs; Build fills its Tenants. Classes
	// nil means one homogeneous "default" class of Servers workers, and
	// explicit classes set Servers to their total count.
	engine.MultiConfig
	Backend engine.Kind

	// Planner knobs (see core.AllocatorOptions). Headroom is also every
	// tenant's route headroom, and an admission controller admits at
	// 1/(1+Headroom) of the granted rate. CacheOff turns the planner's plan
	// cache, model reuse and warm starts off.
	Headroom       float64
	MinAccuracy    float64
	SolveTimeLimit time.Duration
	DisableStall   bool
	CacheOff       bool

	// OnGrants observes every joint allocation (see core.MultiController).
	OnGrants func(step int, grants []int)

	// BucketSec is the width of every tenant collector's buckets.
	BucketSec float64
	// Registry is the telemetry plane's metric registry, shared by every
	// tenant's collector and the joint controller; nil turns telemetry off.
	// TraceProb is the request-tracing sample probability, CollectorOpts the
	// per-worker collectors' options.
	Registry      *telemetry.Registry
	TraceProb     float64
	CollectorOpts []telemetry.CollectorOption
}

// Spec describes one tenant: what it serves, how it is planned, and what
// guards its front door.
type Spec struct {
	Name     string
	Graph    *pipeline.Graph
	SLOSec   float64
	Approach Approach
	Policy   policy.Policy // nil means opportunistic rerouting
	Share    float64       // guaranteed pool fraction under contention
	Tier     int
	// Forecaster, when non-nil, has the tenant plan for the demand it
	// predicts HorizonSec ahead (zero means core.DefaultForecastHorizonSec).
	Forecaster forecast.Forecaster
	HorizonSec float64
	// Admission arms a token-bucket front door that follows the granted
	// capacity. DemandCapQPS, when positive, caps the demand the tenant
	// plans for; an admission-fronted tenant without one is capped at its
	// own allocator's capacity (see Build).
	Admission    bool
	DemandCapQPS float64
}

// Tenant is one tenant's half of the stack, built by Add.
type Tenant struct {
	Spec
	Meta    *core.MetadataStore
	planner core.Planner
	Col     *metrics.Collector
	Adm     *ingress.Admission // nil unless Spec.Admission
	// Tel and Tracer are the tenant's telemetry collector and request
	// tracer, built by Build (nil with telemetry off; Tracer also nil at
	// sample probability zero).
	Tel    *telemetry.Collector
	Tracer *telemetry.Tracer
	ecfg   engine.TenantConfig
}

// Stack is one serving stack: its pool, its tenants in registration order,
// and, once built, the pool's one engine and joint controller.
type Stack struct {
	Pool
	Tenants []*Tenant
	Eng     engine.MultiEngine
	Ctrl    *core.MultiController
}

// New returns an empty stack over the pool, with its hardware classes
// resolved.
func New(p Pool) *Stack {
	if len(p.Classes) == 0 {
		p.Classes = profiles.DefaultClasses(p.Servers)
	} else {
		p.Servers = profiles.TotalCount(p.Classes)
	}
	return &Stack{Pool: p}
}

// planner profiles g on every hardware class of the pool and builds its
// Metadata Store and the approach's planner: Loki's MILP allocator or one of
// the baselines. The returned Proteus pointer is non-nil only for the
// Proteus approach, whose planner additionally needs per-task demand
// observations (wired to the engine's OnTaskDemand hook by Add).
func (s *Stack) planner(g *pipeline.Graph, sloSec float64, ap Approach) (*core.MetadataStore, core.Planner, *baselines.Proteus, error) {
	prof := (&profiles.Profiler{}).ProfileGraphClasses(g, profiles.Batches, s.Classes)
	meta := core.NewMetadataStoreHetero(g, s.Classes, prof, sloSec, profiles.Batches)
	opts := core.AllocatorOptions{
		Servers:         s.Servers,
		NetLatencySec:   s.NetLatencySec,
		KeepWarm:        true,
		Headroom:        s.Headroom,
		MinPathAccuracy: s.MinAccuracy,
		SolveTimeLimit:  s.SolveTimeLimit,
		DisableStall:    s.DisableStall,
		DisableReuse:    s.CacheOff,
	}
	var planner core.Planner
	var proteus *baselines.Proteus
	var err error
	switch ap {
	case Loki:
		planner, err = core.NewAllocator(meta, opts)
	case InferLine:
		planner, err = baselines.NewInferLine(meta, opts)
	case Proteus:
		proteus, err = baselines.NewProteus(meta, opts)
		planner = proteus
	default:
		err = fmt.Errorf("stack: unknown approach %d", ap)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return meta, planner, proteus, nil
}

// Allocator is Planner for Loki's MILP allocator alone, as the
// capacity-planning entry points use it.
func (s *Stack) Allocator(g *pipeline.Graph, sloSec float64) (*core.Allocator, error) {
	_, planner, _, err := s.planner(g, sloSec, Loki)
	alloc, _ := planner.(*core.Allocator)
	return alloc, err
}

// Add validates the spec's pipeline and builds the tenant's half of the
// stack — Metadata Store, planner, collector and admission controller — so
// that a configuration error (for example an SLO no variant can meet)
// surfaces here.
func (s *Stack) Add(spec Spec) (*Tenant, error) {
	if err := spec.Graph.Validate(); err != nil {
		return nil, err
	}
	meta, planner, proteus, err := s.planner(spec.Graph, spec.SLOSec, spec.Approach)
	if err != nil {
		return nil, err
	}
	if spec.Forecaster != nil {
		meta.SetForecaster(spec.Forecaster)
	}
	col := metrics.NewCollector(s.BucketSec, s.Servers)
	// Per-class occupancy (and, when priced, cost) accounting is armed on
	// heterogeneous or priced pools; the plain homogeneous zero-cost pool
	// keeps its recorded reports bit for bit.
	if len(s.Classes) > 1 || s.Classes[0].CostPerHour > 0 {
		names := make([]string, len(s.Classes))
		costs := make([]float64, len(s.Classes))
		for i, cl := range s.Classes {
			names[i], costs[i] = cl.Name, cl.CostPerHour
		}
		col.SetClasses(names, costs)
	}
	t := &Tenant{Spec: spec, Meta: meta, planner: planner, Col: col}
	t.ecfg = engine.TenantConfig{Meta: meta, Policy: spec.Policy, Collector: col, SLOSec: spec.SLOSec, Tier: spec.Tier}
	// Proteus's pipeline-agnostic per-task scaling is only legal on a pool
	// nobody shares; the joint controller rejects it otherwise.
	if proteus != nil {
		t.ecfg.OnTaskDemand = proteus.ObserveTaskDemand
	}
	if spec.Admission {
		// Granted routes carry the planner's headroom-inflated ceiling;
		// admit at the demand the plan was actually sized for.
		t.Adm = ingress.NewAdmission(ingress.Config{SLOSec: spec.SLOSec, TargetUtilization: 1 / (1 + s.Headroom)})
		t.ecfg.Admission = t.Adm
	}
	s.Tenants = append(s.Tenants, t)
	return t, nil
}

// Build stands the pool-wide half up: every tenant's telemetry, the one
// engine over the pool, and the joint controller that partitions it. Under
// a fault schedule every tenant's planner must solve under server caps,
// because a round with servers down plans against the live counts.
func (s *Stack) Build() error {
	if s.Faults != nil {
		for _, t := range s.Tenants {
			if _, ok := t.planner.(core.CappedPlanner); !ok {
				return fmt.Errorf("stack: tenant %q: the %s baseline cannot serve under a fault schedule: it cannot plan within the servers left up", t.Name, t.Approach)
			}
		}
	}
	mc := s.MultiConfig
	workers := make([]telemetry.WorkerClass, len(s.Classes))
	for i, cl := range s.Classes {
		workers[i] = telemetry.WorkerClass{Name: cl.Name, Count: cl.Count}
	}
	for i, t := range s.Tenants {
		if s.Registry != nil {
			// The collector mirrors the engine's physical worker layout
			// (class by class, in class order); the tracer samples from its
			// own seeded stream, disjoint from the per-tenant cluster
			// (seed+1+2i) and arrival (seed+2+2i) streams, so telemetry
			// never perturbs serving.
			t.Tel = telemetry.NewCollector(s.Registry, t.Name, workers, s.CollectorOpts...)
			t.Tracer = telemetry.NewTracer(t.Name, s.TraceProb, s.Seed+9001+2*int64(i))
			t.ecfg.Telemetry, t.ecfg.Tracer = t.Tel, t.Tracer
		}
		mc.Tenants = append(mc.Tenants, t.ecfg)
	}
	eng, err := engine.NewMulti(s.Backend, mc)
	if err != nil {
		return err
	}
	ctenants := make([]*core.Tenant, len(s.Tenants))
	for i, t := range s.Tenants {
		// An admission-fronted tenant never has to plan for overload: the
		// front door sheds whatever the pool cannot serve within the SLO, so
		// without an explicit cap its planning demand is capped at its own
		// allocator's capacity. Without the cap an overload pushes the
		// planner into a saturated throughput-optimal plan whose oversized
		// batches miss the SLO by construction, and admission throttling
		// arrivals into such a plan only starves its batches. MaxCapacity
		// bisects with feasibility probes, about 16 on a 20-server pool, most
		// decided by one LP relaxation and a few by a branch and bound
		// stopped at its first integer point (≈0.4 s for traffic-analysis);
		// it runs once, here. The full solve at the capacity itself waits
		// for the tenant's first plan there, if demand ever reaches it.
		demandCap := t.DemandCapQPS
		if alloc, ok := t.planner.(*core.Allocator); ok && demandCap == 0 && t.Adm != nil {
			demandCap = alloc.MaxCapacity(0, 20000)
		}
		ctenants[i] = &core.Tenant{
			Name: t.Name, Tier: t.Tier, Meta: t.Meta, Alloc: t.planner, MinShare: t.Share,
			RouteHeadroom: s.Headroom, ForecastHorizonSec: t.HorizonSec, DemandCapQPS: demandCap,
			CacheDisabled: s.CacheOff,
			// The engine retargets the admission controller on every
			// publication.
			Publish: func(plan *core.Plan, routes *core.Routes) { eng.ApplyPlan(i, plan, routes) },
		}
	}
	ctrl, err := core.NewMultiController(s.Servers, ctenants)
	if err != nil {
		return err
	}
	ctrl.SetTelemetry(s.Registry)
	ctrl.OnGrants = s.OnGrants
	s.Eng, s.Ctrl = eng, ctrl
	return nil
}

// Prime runs the first joint allocation before any traffic. openQPS seeds
// each tenant's demand estimate; missing or non-positive entries leave the
// tenant on its keep-warm minimal plan.
func (s *Stack) Prime(openQPS []float64) error {
	for i, t := range s.Tenants {
		if i < len(openQPS) && openQPS[i] > 0 {
			t.Meta.ObserveDemand(openQPS[i])
		}
	}
	return s.Ctrl.Step(true)
}

// Start launches the engine under the joint controller.
func (s *Stack) Start() error { return s.Eng.Start(s.Ctrl) }
