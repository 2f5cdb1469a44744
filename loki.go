// Package loki is a serving system for ML inference pipelines with joint
// hardware and accuracy scaling, reproducing "Loki: A System for Serving ML
// Inference Pipelines with Hardware and Accuracy Scaling" (HPDC 2024).
//
// A pipeline is a rooted tree of tasks; each task is served by a family of
// model variants trading accuracy for throughput. Loki's Resource Manager
// periodically solves a MILP that first tries to serve the demand with the
// most accurate variants on as few servers as possible (hardware scaling)
// and, once the cluster is exhausted, picks the variant mix that sacrifices
// the least end-to-end accuracy while meeting demand and the latency SLO
// (accuracy scaling). Its Load Balancer routes queries to the most accurate
// workers first and rescues stragglers by opportunistically rerouting them
// to faster workers with leftover capacity.
//
// The primary API is the long-lived System: build a pipeline (canned or via
// the PipelineBuilder), stand the system up, and inject requests online —
// either one at a time (Submit) or as a whole workload trace (Feed):
//
//	sys, err := loki.New(loki.TrafficAnalysisPipeline(),
//	    loki.WithServers(20),
//	    loki.WithSLO(250*time.Millisecond))
//	if err != nil { ... }
//	if err := sys.Feed(loki.AzureTrace(1, 96, 10, 1100)); err != nil { ... }
//	if err := sys.Stop(); err != nil { ... }
//	fmt.Println(sys.Report())
//
// While running, Snapshot, Plan, and Routes observe the live system state.
// WithEngine selects the serving backend: the discrete-event simulator
// (default, virtual time) or the same simulator paced by the wall clock.
// Serve remains as the one-call batch form — it is exactly
// New → Feed → Stop → Report.
//
// Custom pipelines are assembled with NewPipeline:
//
//	pipe, err := loki.NewPipeline("traffic-analysis").
//	    Task("object-detection", loki.MustVariantFamily("yolov5")...).
//	    Child("car-classification", 0.70, loki.MustVariantFamily("efficientnet")...).
//	    Child("facial-recognition", 0.30, loki.MustVariantFamily("vgg")...).
//	    Build()
//
// with variant accuracy/latency profiles drawn from the registry
// (RegisterVariantFamily adds custom families). The lower-level building
// blocks (allocation plans, routing tables) are exposed through the Plan and
// Routes types and the cmd/ tools; the experiments regenerating every figure
// of the paper live in internal/experiments behind cmd/lokiexp.
//
// Several pipelines can share one server pool: build a MultiSystem with
// NewMulti, register each pipeline with AddPipeline (per-pipeline SLO,
// policy, and contention guarantee via PipelineOptions), and serve
// concurrent traces with FeedAll. The joint Resource Manager re-partitions
// the pool across pipelines on every adaptation round — see ARCHITECTURE.md
// for the layer map and the multi-tenant control flow. A System built with
// New is exactly a MultiSystem with a single registered pipeline holding
// the whole pool.
package loki

import (
	"fmt"
	"math"
	"time"

	"loki/internal/core"
	"loki/internal/engine"
	"loki/internal/fault"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/stack"
	"loki/internal/telemetry"
	"loki/internal/trace"
)

// Pipeline is an inference pipeline: a rooted tree of tasks.
type Pipeline = pipeline.Graph

// Task is one stage of a pipeline.
type Task = pipeline.Task

// TaskID indexes a task within its pipeline.
type TaskID = pipeline.TaskID

// Child is a task→task edge with its branch ratio.
type Child = pipeline.Child

// Variant is one model variant: accuracy, batch-latency profile, and
// multiplicative factor.
type Variant = pipeline.Variant

// Trace is a demand series driving a serving run.
type Trace = trace.Trace

// Plan is a resource allocation: model variants, replica counts, and max
// batch sizes (the Resource Manager's output).
type Plan = core.Plan

// Routes are the routing tables MostAccurateFirst produces.
type Routes = core.Routes

// Policy is an early-dropping mechanism applied at task boundaries.
type Policy = policy.Policy

// The four §5.2 policies.
var (
	NoDropPolicy        Policy = policy.NoDrop{}
	LastTaskPolicy      Policy = policy.LastTask{}
	PerTaskPolicy       Policy = policy.PerTask{}
	OpportunisticPolicy Policy = policy.Opportunistic{}
)

// Canned pipelines from the paper's evaluation.

// TrafficAnalysisPipeline returns the Figure 2a pipeline: YOLOv5 object
// detection feeding EfficientNet car classification and VGG facial
// recognition.
func TrafficAnalysisPipeline() *Pipeline { return profiles.TrafficTree() }

// TrafficChainPipeline returns the two-task chain of Figure 1.
func TrafficChainPipeline() *Pipeline { return profiles.TrafficChain() }

// SocialMediaPipeline returns the Figure 2b pipeline: ResNet image
// classification feeding CLIP-ViT captioning.
func SocialMediaPipeline() *Pipeline { return profiles.SocialMedia() }

// Canned workloads.

// AzureTrace synthesizes a diurnal trace shaped like the Azure Functions
// workload, scaled to the given peak QPS.
func AzureTrace(seed int64, steps int, stepSec, peakQPS float64) *Trace {
	return trace.AzureLike(seed, steps, stepSec).ScaleToPeak(peakQPS)
}

// TwitterTrace synthesizes a diurnal trace with bursts shaped like the
// Twitter streaming workload.
func TwitterTrace(seed int64, steps int, stepSec, peakQPS float64) *Trace {
	return trace.TwitterLike(seed, steps, stepSec).ScaleToPeak(peakQPS)
}

// RampTrace is a linear demand ramp.
func RampTrace(startQPS, endQPS float64, steps int, stepSec float64) *Trace {
	return trace.Ramp(startQPS, endQPS, steps, stepSec)
}

// DiurnalTrace is a deterministic day/night cycle: the rate swings
// sinusoidally between trough and peak, completing `periods` full cycles
// over the trace. Noise-free and exactly periodic — the reference workload
// for seasonal forecasters (see WithForecaster).
func DiurnalTrace(steps int, stepSec, troughQPS, peakQPS float64, periods int) *Trace {
	return trace.Diurnal(steps, stepSec, troughQPS, peakQPS, periods)
}

// FlashCrowdTrace is a flat base rate with a sudden mult× burst over the
// window [startFrac, startFrac+durFrac) of the trace — the spike workload
// of the proactive-serving experiments.
func FlashCrowdTrace(baseQPS float64, steps int, stepSec, startFrac, durFrac, mult float64) *Trace {
	return trace.FlashCrowd(baseQPS, steps, stepSec, startFrac, durFrac, mult)
}

// Baseline selects an alternative resource-management strategy for Serve.
type Baseline int

// Baselines from §6.1. BaselineNone runs Loki itself. The values mirror the
// serving stack's approaches one to one.
const (
	BaselineNone      Baseline = iota // Loki: hardware + accuracy scaling
	BaselineInferLine                 // hardware scaling only, fixed variants
	BaselineProteus                   // pipeline-agnostic per-task accuracy scaling
)

// Option configures a serving system (New, NewMulti, Serve) or a planning
// entry point (PlanFor, MaxCapacity). Pool-level knobs (WithServers,
// WithSeed, WithEngine, WithNetworkLatency, WithHeadroom) always apply to
// the whole system; per-pipeline knobs (WithSLO, WithPolicy, WithBaseline)
// set the defaults that a MultiSystem's PipelineOptions may override for
// individual pipelines.
type Option func(*config)

// config is the pool the options describe, with the serving stack's own
// knobs, plus the per-pipeline defaults and the switches only the public
// package reads.
type config struct {
	pool   stack.Pool
	tenant pipelineConfig
	// telemetryOff records WithTelemetry(false): the per-worker collectors,
	// the metric registry, and the request tracer are all skipped.
	telemetryOff bool
}

// WithServers sets the cluster size (default 20, the paper's testbed). On a
// MultiSystem this is the shared pool every registered pipeline draws from.
// WithHardware supersedes it: with explicit hardware classes the pool size
// is the classes' total count.
func WithServers(n int) Option { return func(c *config) { c.pool.Servers = n } }

// HardwareClass describes one class of a heterogeneous cluster: Count
// servers of the same accelerator generation, each executing at Speed × the
// profiled reference speed (1.0 = the paper's GTX 1080 Ti testbed) and
// costing CostPerHour dollars per active server-hour (0 disables cost
// accounting for the class). The Resource Manager plans replicas per
// (variant, batch, class), keeps one capacity constraint per class, and the
// engines swap models only within a class.
type HardwareClass = profiles.Class

// WithHardware declares the cluster's hardware classes, replacing the
// homogeneous pool of WithServers with a mixed fleet. The pool size becomes
// the classes' total count. The default — equivalent to omitting the option
// — is a single class named "default" holding WithServers servers at Speed
// 1.0 and zero cost, which reproduces the homogeneous system bit for bit.
//
//	loki.WithHardware(
//	    loki.HardwareClass{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: 3.5},
//	    loki.HardwareClass{Name: "v100", Count: 8, Speed: 1.0, CostPerHour: 1.2},
//	    loki.HardwareClass{Name: "cpu", Count: 16, Speed: 0.25, CostPerHour: 0.2})
//
// When any class carries a positive CostPerHour, hardware scaling minimizes
// the fleet's dollar rate instead of its server count (INFaaS-style), and
// Report gains ServerCostHours/CostPerQuery.
func WithHardware(classes ...HardwareClass) Option {
	return func(c *config) { c.pool.Classes = append([]HardwareClass(nil), classes...) }
}

// ParseHardware parses a fleet specification of the form
// "a100:4@2.0,v100:8@1.0,cpu:16@0.25" — comma-separated name:count@speed
// entries, each with an optional fourth @cost-per-hour part
// ("a100:4@2.0@3.5") — as accepted by the serving CLIs' -hardware flag. An
// empty spec returns nil (keep the homogeneous default).
func ParseHardware(spec string) ([]HardwareClass, error) { return profiles.ParseClasses(spec) }

// WithSLO sets the end-to-end latency SLO (default 250 ms). On a
// MultiSystem it is the default for pipelines that do not set their own via
// WithPipelineSLO. The SLO shapes planning, not just measurement: the
// Resource Manager prunes configuration paths whose latency cannot fit it,
// so an SLO no variant combination can meet fails at construction.
func WithSLO(d time.Duration) Option { return func(c *config) { c.tenant.SLOSec = d.Seconds() } }

// WithNetworkLatency sets the per-hop communication latency (default 2 ms).
// It must not be negative; zero models free hops.
func WithNetworkLatency(d time.Duration) Option {
	return func(c *config) { c.pool.NetLatencySec = d.Seconds() }
}

// WithSeed fixes all stochastic choices (profiling noise, routing draws,
// Poisson arrivals and fan-out). On the Simulated engine a fixed seed makes
// whole runs bit-for-bit reproducible; multi-tenant systems derive disjoint
// per-pipeline RNG streams from it.
func WithSeed(s int64) Option { return func(c *config) { c.pool.Seed = s } }

// WithPolicy selects the early-dropping policy (default opportunistic
// rerouting). The policy is a serving-time mechanism and composes freely
// with WithBaseline: the baseline replaces the Resource Manager's planning
// strategy, while the policy governs what workers do with straggling
// requests under whichever plan is standing. On a MultiSystem it is the
// default that WithPipelinePolicy overrides per pipeline.
func WithPolicy(p Policy) Option { return func(c *config) { c.tenant.Policy = p } }

// WithBaseline serves with a baseline planning strategy instead of Loki's
// MILP (see Baseline). Only the planner changes — engine, routing, drop
// policy (WithPolicy), and metrics stay identical, which is what makes the
// §6 comparisons apples-to-apples. On a MultiSystem it is the default that
// WithPipelineBaseline overrides per pipeline; note BaselineProteus cannot
// share a pool or serve under WithFaults (it has no capped solve).
func WithBaseline(b Baseline) Option {
	return func(c *config) { c.tenant.Approach = stack.Approach(b) }
}

// WithHeadroom sets the capacity over-provisioning factor (default 0.30).
// It inflates both the demand the Resource Manager plans for and the demand
// the Load Balancer routes for, keeping batch-queue waits inside the SLO/2
// allowance at critical load. It must be finite and not negative; zero
// keeps the default.
func WithHeadroom(h float64) Option { return func(c *config) { c.pool.Headroom = h } }

// WithSwapLatency models the model-load pause when a worker changes variant
// (default zero). It applies to both engines and must not be negative.
func WithSwapLatency(d time.Duration) Option {
	return func(c *config) { c.pool.SwapLatencySec = d.Seconds() }
}

// WithSolveTimeLimit bounds each Resource Manager MILP solve (default
// 500 ms). It must not be negative; zero keeps the default.
func WithSolveTimeLimit(d time.Duration) Option {
	return func(c *config) { c.pool.SolveTimeLimit = d }
}

// WithExecutionJitter adds relative noise to batch execution latencies: a
// batch takes its profiled latency times 1 ± j, uniformly (default zero). It
// applies to both engines. j must lie in [0, 1), so no batch runs in zero or
// negative time.
func WithExecutionJitter(j float64) Option { return func(c *config) { c.pool.ExecJitter = j } }

// WithMinAccuracy sets a floor on end-to-end path accuracy: accuracy
// scaling never routes queries through variant combinations below it (§1
// notes deployments usually impose a minimum acceptable accuracy, which
// bounds how far accuracy scaling may go). Demand beyond the floored
// capacity is shed instead.
func WithMinAccuracy(a float64) Option { return func(c *config) { c.pool.MinAccuracy = a } }

// WithPlannerCache toggles the Resource Manager's fast planning path
// (default on): the per-pipeline plan cache over quantized demand levels,
// the step models every solve of a pipeline patches instead of rebuilding,
// the warm-start seeds carried from one adaptation round to the next, and
// the stall cutoff on wall-clock-budgeted searches. Proof-terminated
// solves return identical plans either way; gap-terminated solves follow
// the identical search and may only be upgraded, within the gap tolerance,
// by a verified warm start; wall-clock-truncated solves are anytime and
// timing-dependent in both modes. WithPlannerCache(false) is the
// from-scratch, full-budget escape hatch for measurement and debugging.
func WithPlannerCache(on bool) Option {
	return func(c *config) { c.pool.CacheOff = !on }
}

// WithAdmission arms per-pipeline admission control and load shedding
// (default off). Each pipeline gets a token-bucket admission controller in
// front of its queues whose target rate follows the capacity the joint
// allocator actually granted it — the summed service rate of its root-task
// replicas, refreshed on every plan publication — plus a saturation limit on
// in-flight work. Arrivals beyond the admitted rate are shed immediately:
// Submit returns ErrOverloaded (carrying a Retry-After hint, see RetryAfter)
// and the HTTP front door answers 429, instead of letting excess requests
// queue past their SLO. Shed requests still count toward the demand the
// planner observes, so a shedding system scales up and the admitted rate
// follows.
func WithAdmission(on bool) Option { return func(c *config) { c.tenant.Admission = on } }

// WithTelemetry toggles the telemetry plane (default on): per-worker
// collectors fed by the serving engines (queue depth, occupancy, in-flight
// batch size, served QPS, speed factor, live state), the metric registry
// behind MultiSystem.Telemetry and the HTTP front door's GET /metrics
// exposition, and sampled request tracing. Telemetry is pure observation —
// it consumes no RNG stream and perturbs no serving decision, so runs are
// bit-identical with it on or off. WithTelemetry(false) is the
// zero-overhead escape hatch for benchmarking.
func WithTelemetry(on bool) Option { return func(c *config) { c.telemetryOff = !on } }

// WithTraceSampling sets the request-tracing sample probability, which must
// lie in [0, 1] (default 1/64). Sampled requests record a span per pipeline stage — queue
// wait, execution time, batch size, worker, and hardware class — exported as
// JSON by MultiSystem.WriteTraces and summarized per stage in Report.Stages.
// On the Simulated engine sampling draws from its own seeded stream, so the
// sampled set is deterministic for a fixed seed. Zero traces nothing;
// WithTelemetry(false) disables tracing regardless.
func WithTraceSampling(p float64) Option {
	return func(c *config) { c.pool.TraceProb = p }
}

// WithWorkerMetricsLimit sets the largest tenant pool that still gets
// per-worker series on /metrics (default 256; 0 means unlimited; negative
// values are rejected). Bigger
// pools degrade to per-class aggregate series — queue depth, in-flight
// batches, live count, served QPS, mean occupancy and speed — which keeps
// exposition cardinality bounded at fleet scale while Snapshot.Workers
// retains full per-worker detail.
func WithWorkerMetricsLimit(n int) Option {
	return func(c *config) {
		c.pool.CollectorOpts = []telemetry.CollectorOption{telemetry.WithWorkerMetricsLimit(n)}
	}
}

// WorkerStatus is one worker's live telemetry row: queue depth, in-flight
// batch, occupancy and served QPS over the last sampling window, speed
// factor and liveness from the fault injector, and cumulative served/batch/
// swap totals. Snapshot.Workers carries one per pool worker.
type WorkerStatus = telemetry.WorkerRow

// StageLatency aggregates the sampled traces of one pipeline stage: queue
// and execution latency quantiles, mean batch size, and the worst sampled
// end-to-end time. Report.Stages carries one per stage that served a
// sampled request.
type StageLatency = telemetry.StageStat

// RequestTrace is one sampled request's span tree as recorded by the
// request tracer (see WithTraceSampling).
type RequestTrace = telemetry.ReqTrace

// TraceSpan is one stage-level span of a RequestTrace.
type TraceSpan = telemetry.Span

// TelemetryRegistry is the system's metric registry: every counter, gauge,
// and histogram the telemetry plane maintains, queryable programmatically
// (Gather) or rendered in Prometheus text exposition format
// (WritePrometheus) — the same bytes the HTTP front door serves on
// GET /metrics.
type TelemetryRegistry = telemetry.Registry

// MetricPoint is one metric sample returned by TelemetryRegistry.Gather.
type MetricPoint = telemetry.Point

// FaultKind enumerates the failure modes the fault injector can produce.
type FaultKind int

const (
	// FaultCrash takes N servers of a hardware class down; their queued
	// and in-flight work is lost.
	FaultCrash FaultKind = iota
	// FaultOutage takes a whole hardware class down at once (the spot pool
	// vanishes).
	FaultOutage
	// FaultStraggler multiplies the execution speed of N servers by Factor
	// (0.25 = four times slower) without dropping their work.
	FaultStraggler
)

// FaultEvent is one scheduled fault. At is measured from the start of
// serving. Class names the hardware class hit (empty = the pool's first
// class); N bounds how many servers are affected (ignored by FaultOutage);
// Factor is the straggler speed multiplier; RecoverAfter, when positive,
// undoes the fault that long after it fires (zero = permanent).
type FaultEvent struct {
	At           time.Duration
	Kind         FaultKind
	Class        string
	N            int
	Factor       float64
	RecoverAfter time.Duration
}

// WithFaults installs a deterministic fault schedule into the serving
// engines (default none). A crashed worker drops its queued and in-flight
// batches, leaves the load balancer's route table, and stops counting toward
// class capacity: the metadata stores and Snapshot report the live per-class
// counts, and the arbiter re-plans against them within one adaptation round
// (keep-warm repair plus per-class re-solves) instead of waiting out the RM
// period. With no faults configured every code path is bit-identical to the
// fault-free system. Same seed, same schedule — same run, on the simulator
// bit for bit.
//
//	loki.WithFaults(loki.FaultEvent{
//	    At: 30 * time.Second, Kind: loki.FaultOutage,
//	    Class: "spot", RecoverAfter: 20 * time.Second})
func WithFaults(events ...FaultEvent) Option {
	return func(c *config) { c.pool.Faults = faultSchedule(events) }
}

// ParseFaults parses the CLI fault grammar accepted by the serving CLIs'
// -fault flag: comma-separated kind@time[:key=value]... events, where kind
// is crash, outage, or straggle, time is a Go duration or plain seconds, and
// the keys are class=<name>, n=<count>, factor=<mult>, recover=<duration>.
//
//	crash@30s:class=a100:n=2:recover=20s,outage@60s:class=spot:recover=30s
//
// An empty spec returns nil (no faults).
func ParseFaults(spec string) ([]FaultEvent, error) {
	sched, err := fault.Parse(spec)
	if err != nil || sched == nil {
		return nil, err
	}
	out := make([]FaultEvent, len(sched.Events))
	for i, e := range sched.Events {
		out[i] = FaultEvent{
			At:           time.Duration(e.At * float64(time.Second)),
			Kind:         FaultKind(e.Kind),
			Class:        e.Class,
			N:            e.N,
			Factor:       e.Factor,
			RecoverAfter: time.Duration(e.RecoverAfter * float64(time.Second)),
		}
	}
	return out, nil
}

// WithFaultObserver registers a callback invoked on every fault and recovery
// event with the engine's time in seconds and a human-readable description
// (the serving CLIs log these in the status line). The callback may fire
// from an engine goroutine; it must not call back into the system.
func WithFaultObserver(fn func(timeSec float64, event string)) Option {
	return func(c *config) { c.pool.OnFault = fn }
}

// faultSchedule converts public fault events to the internal schedule.
func faultSchedule(events []FaultEvent) *fault.Schedule {
	if len(events) == 0 {
		return nil
	}
	s := &fault.Schedule{}
	for _, e := range events {
		s.Events = append(s.Events, fault.Event{
			At:           e.At.Seconds(),
			Kind:         fault.Kind(e.Kind),
			Class:        e.Class,
			N:            e.N,
			Factor:       e.Factor,
			RecoverAfter: e.RecoverAfter.Seconds(),
		})
	}
	return s
}

// Report is the outcome of a serving run.
type Report struct {
	// Pipeline labels which pipeline the totals belong to. Empty on a
	// single-pipeline System report; set to the registered name on
	// MultiSystem reports (and "all" on AggregateReport), so mixed-tenant
	// numbers are never silently summed.
	Pipeline string
	// Accuracy is the mean end-to-end accuracy over answered requests
	// (normalized; 1.0 = every task used its most accurate variant).
	Accuracy float64
	// SLOViolationRatio is the fraction of requests that finished past
	// their deadline or were dropped.
	SLOViolationRatio float64
	// MeanServers / MinServers / MaxServers track hardware scaling.
	MeanServers, MinServers, MaxServers float64
	// MeanLatency is the mean end-to-end response time of answered
	// requests.
	MeanLatency time.Duration
	// Requests breakdown.
	Arrivals, Completed, Late, Dropped, Rerouted int64
	// Admitted and Shed are admission-control totals: requests that passed a
	// pipeline's admission controller and requests it refused. Both stay zero
	// unless WithAdmission armed one — shed requests are not Arrivals (they
	// never entered the system), so offered load is Arrivals + Shed.
	Admitted, Shed int64
	// MeanServersByClass breaks MeanServers down per hardware class (keyed
	// by class name). Nil on runs without hardware-class accounting.
	MeanServersByClass map[string]float64
	// ServerCostHours is the run's accrued server cost in dollars: active
	// servers × their class's CostPerHour, integrated over the run. Zero on
	// unpriced fleets (every CostPerHour zero), where cost accounting is
	// off and Report output is unchanged.
	ServerCostHours float64
	// CostPerQuery is ServerCostHours divided by answered requests
	// (completed plus late), the INFaaS-style serving cost. Zero on
	// unpriced fleets.
	CostPerQuery float64
	// LatencyP50 and LatencyP99 are end-to-end response-time quantiles over
	// answered requests, interpolated from the collector's latency histogram.
	// Zero when nothing was answered.
	LatencyP50, LatencyP99 time.Duration
	// Stages summarizes the sampled request traces per pipeline stage (queue
	// and execution latency quantiles, mean batch size). Nil when tracing is
	// off (WithTelemetry(false) or WithTraceSampling(0)) or nothing was
	// sampled. Aggregate reports do not carry it.
	Stages []StageLatency
	// Series holds per-bucket time series for plotting.
	Series []SeriesPoint
}

// SeriesPoint is one metrics bucket of a run.
type SeriesPoint = metrics.Point

// String summarizes the report in one line, prefixed with the pipeline
// label when the report belongs to one tenant of a shared pool. Cost
// columns appear only when the fleet accrued any cost, so zero-cost
// (homogeneous) reports render byte-identically to the pre-hardware-class
// format.
func (r *Report) String() string {
	label := ""
	if r.Pipeline != "" {
		label = fmt.Sprintf("pipeline=%s ", r.Pipeline)
	}
	s := fmt.Sprintf("%saccuracy=%.4f slo-violations=%.4f servers=%.1f (min %.0f, max %.0f) requests=%d (late %d, dropped %d)",
		label, r.Accuracy, r.SLOViolationRatio, r.MeanServers, r.MinServers, r.MaxServers,
		r.Arrivals, r.Late, r.Dropped)
	// The shed column appears only when an admission controller was armed
	// (Admitted > 0 or Shed > 0), so admission-free reports render
	// byte-identically to the historical format.
	if r.Admitted > 0 || r.Shed > 0 {
		s += fmt.Sprintf(" shed=%d", r.Shed)
	}
	if r.ServerCostHours > 0 {
		s += fmt.Sprintf(" cost=$%.2f ($%.6f/query)", r.ServerCostHours, r.CostPerQuery)
	}
	return s
}

func buildConfig(opts []Option) config {
	c := config{
		pool: stack.Pool{
			MultiConfig: engine.MultiConfig{Servers: stack.DefaultServers, NetLatencySec: stack.DefaultNetLatencySec},
			BucketSec:   stack.DefaultBucketSec,
			TraceProb:   1.0 / 64,
		},
		tenant: pipelineConfig{Spec: stack.Spec{SLOSec: stack.DefaultSLOSec, Policy: OpportunisticPolicy}},
	}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Serve runs the pipeline against the workload and reports the §6.1
// metrics. It is the batch form of the System API — exactly
// New → Feed → Stop → Report — and is deterministic for a fixed seed on the
// default simulated engine.
func Serve(p *Pipeline, tr *Trace, opts ...Option) (*Report, error) {
	sys, err := New(p, opts...)
	if err != nil {
		return nil, err
	}
	if err := sys.Feed(tr); err != nil {
		sys.Stop()
		return nil, err
	}
	if err := sys.Stop(); err != nil {
		return nil, err
	}
	return sys.Report(), nil
}

// newStack returns an empty serving stack over the configured pool: the
// WithHardware fleet (validated) or the homogeneous default of one class
// holding all WithServers servers, with the paper's 0.30 headroom and 500 ms
// solve limit unless WithHeadroom and WithSolveTimeLimit set them. Telemetry
// is off until the caller sets the stack's Registry. An option value outside
// its documented range is an error.
func (c config) newStack() (*stack.Stack, error) {
	p := c.pool
	if err := checkRanges(p); err != nil {
		return nil, err
	}
	if p.Headroom == 0 {
		p.Headroom = stack.DefaultHeadroom
	}
	if p.SolveTimeLimit == 0 {
		p.SolveTimeLimit = stack.DefaultSolveTimeLimit
	}
	if len(p.Classes) > 0 {
		if err := profiles.ValidateClasses(p.Classes); err != nil {
			return nil, err
		}
	}
	return stack.New(p), nil
}

// checkRanges rejects a pool option set outside the range its option
// documents; the error names the option and the value.
func checkRanges(p stack.Pool) error {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	for _, o := range []struct {
		option string
		value  any
		ok     bool
		want   string
	}{
		{"WithHeadroom", p.Headroom, p.Headroom >= 0 && !math.IsInf(p.Headroom, 1), "[0, +Inf)"},
		{"WithTimeScale", p.TimeScale, p.TimeScale >= 0 && !math.IsInf(p.TimeScale, 1), "[0, +Inf)"},
		{"WithExecutionJitter", p.ExecJitter, p.ExecJitter >= 0 && p.ExecJitter < 1, "[0, 1)"},
		{"WithTraceSampling", p.TraceProb, p.TraceProb >= 0 && p.TraceProb <= 1, "[0, 1]"},
		{"WithNetworkLatency", sec(p.NetLatencySec), p.NetLatencySec >= 0, "[0, +Inf)"},
		{"WithSwapLatency", sec(p.SwapLatencySec), p.SwapLatencySec >= 0, "[0, +Inf)"},
		{"WithSolveTimeLimit", p.SolveTimeLimit, p.SolveTimeLimit >= 0, "[0, +Inf)"},
	} {
		if !o.ok {
			return fmt.Errorf("loki: %s(%v) is outside %s", o.option, o.value, o.want)
		}
	}
	if n := telemetry.WorkerMetricsLimit(p.CollectorOpts...); n < 0 {
		return fmt.Errorf("loki: WithWorkerMetricsLimit(%d) is negative", n)
	}
	return nil
}

// allocator builds the MILP allocator the capacity-planning entry points
// query: the planner a Loki tenant of the configured pool plans with.
func allocator(p *Pipeline, opts []Option) (*core.Allocator, error) {
	c := buildConfig(opts)
	s, err := c.newStack()
	if err != nil {
		return nil, err
	}
	return s.Allocator(p, c.tenant.SLOSec)
}

// PlanFor runs the Resource Manager once for a demand level, returning the
// optimal allocation plan (useful for capacity planning without a full
// serving run). The demand must be finite and not negative.
func PlanFor(p *Pipeline, demandQPS float64, opts ...Option) (*Plan, error) {
	if !(demandQPS >= 0) || math.IsInf(demandQPS, 1) {
		return nil, fmt.Errorf("loki: PlanFor demand %v qps is outside [0, +Inf)", demandQPS)
	}
	alloc, err := allocator(p, opts)
	if err != nil {
		return nil, err
	}
	return alloc.Allocate(demandQPS)
}

// MaxCapacity estimates the largest demand (QPS) the cluster can fully serve
// with accuracy scaling enabled, to within 0.5 qps. There is no ceiling: the
// search starts on [0, 20000] and doubles its upper end while the cluster
// keeps up.
func MaxCapacity(p *Pipeline, opts ...Option) (float64, error) {
	alloc, err := allocator(p, opts)
	if err != nil {
		return 0, err
	}
	return alloc.MaxCapacity(0, 20000), nil
}
