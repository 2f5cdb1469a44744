package loki

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/ingress"
	"loki/internal/metrics"
	"loki/internal/stack"
	"loki/internal/telemetry"
)

// ErrUnknownPipeline is returned when a MultiSystem method names a pipeline
// that was never registered with AddPipeline.
var ErrUnknownPipeline = errors.New("loki: unknown pipeline")

// pipelineConfig is one pipeline's tenant spec as the options describe it:
// the system-wide Options set the spec every pipeline starts from, and
// AddPipeline's PipelineOptions override it per pipeline.
type pipelineConfig struct {
	stack.Spec
	fc forecastConfig
}

// PipelineOption configures one pipeline registered with
// MultiSystem.AddPipeline. System-wide Options (WithSLO, WithPolicy,
// WithBaseline) set the defaults; PipelineOptions override them per
// pipeline.
type PipelineOption func(*pipelineConfig)

// WithPipelineSLO sets this pipeline's end-to-end latency SLO, overriding
// the system-wide WithSLO default.
func WithPipelineSLO(d time.Duration) PipelineOption {
	return func(c *pipelineConfig) { c.SLOSec = d.Seconds() }
}

// WithPipelinePolicy sets this pipeline's early-dropping policy, overriding
// the system-wide WithPolicy default.
func WithPipelinePolicy(p Policy) PipelineOption {
	return func(c *pipelineConfig) { c.Policy = p }
}

// WithShare guarantees this pipeline a minimum fraction of the server pool
// when combined demand exceeds it. Pipelines without an explicit share split
// the unreserved fraction equally. Shares only bind under contention: an
// idle pipeline's guarantee is lent to whoever needs it and reclaimed on the
// next adaptation round.
func WithShare(f float64) PipelineOption {
	return func(c *pipelineConfig) { c.Share = f }
}

// WithPipelineBaseline plans this pipeline with a baseline strategy instead
// of Loki's MILP, overriding the system-wide WithBaseline default. On a
// shared pool the baseline must support capped solves (BaselineInferLine
// does; BaselineProteus is single-tenant only).
func WithPipelineBaseline(b Baseline) PipelineOption {
	return func(c *pipelineConfig) { c.Approach = stack.Approach(b) }
}

// WithTier assigns this pipeline a service tier and, when slo is positive,
// its latency SLO in one stroke. Higher tiers are higher priority; the
// default tier is 0. Tiers only matter when capacity is short — an outage, a
// crash, or plain contention: the joint arbiter grants floors tier by tier
// from the top and spills leftover capacity to the highest unmet tier first,
// so a shrinking pool degrades the lowest tiers first while high-tier SLOs
// hold. Admission follows the grants (a low tier's rate falls first, so its
// traffic sheds first), and the tier rides on every ShedError and 429. With
// uniform tiers the split is bit-identical to the tier-free system.
func WithTier(tier int, slo time.Duration) PipelineOption {
	return func(c *pipelineConfig) {
		c.Tier = tier
		if slo > 0 {
			c.SLOSec = slo.Seconds()
		}
	}
}

// MultiSystem serves several pipelines on one shared server pool. Register
// pipelines with AddPipeline, then inject traffic per pipeline (Submit,
// Feed) or for all at once (FeedAll); the joint Resource Manager partitions
// the pool across pipelines on every adaptation round, so a traffic spike
// in one pipeline steals servers another is not using, while WithShare
// guarantees hold under contention. Each pipeline keeps its own routing
// tables, metrics, and Report.
//
// The first injection (or the first HTTP request) freezes registration, and
// the first injection stands the control plane up; the same engine-threading
// rules as System apply (single goroutine on the Simulated engine,
// concurrent use on Wallclock).
type MultiSystem struct {
	cfg config

	mu     sync.Mutex
	byName map[string]int
	// st is the serving stack: each registered pipeline's tenant, built by
	// AddPipeline, and the shared engine and joint controller, built on the
	// first injection. Its Registry is the telemetry plane's metric registry
	// (nil under WithTelemetry(false)).
	st         *stack.Stack
	closed     bool // registration closed
	built      bool
	primed     bool
	engStarted bool
	stopped    bool

	// HTTP front door state (see ServeHTTP and Drain). draining is atomic so
	// the handler's fast path never takes m.mu.
	httpOnce sync.Once
	httpSrv  *ingress.Server
	draining atomic.Bool
}

// NewMulti creates an empty multi-tenant serving system over a shared pool
// sized by WithServers. System-wide Options set pool-level knobs (servers,
// seed, engine, network latency) and the per-pipeline defaults (SLO,
// policy, baseline) that AddPipeline's PipelineOptions may override.
func NewMulti(opts ...Option) (*MultiSystem, error) {
	c := buildConfig(opts)
	st, err := c.newStack()
	if err != nil {
		return nil, err
	}
	if st.Servers <= 0 {
		return nil, fmt.Errorf("loki: multi-tenant pool needs a positive server count, got %d", st.Servers)
	}
	if !c.telemetryOff {
		st.Registry = telemetry.NewRegistry()
	}
	return &MultiSystem{cfg: c, byName: map[string]int{}, st: st}, nil
}

// AddPipeline registers a pipeline under a unique name. It validates the
// pipeline, profiles its variants, and builds its planner immediately, so
// infeasible configurations (for example an SLO no variant can meet) fail
// here. Registration closes once traffic has been injected or the HTTP front
// door has served a request.
func (m *MultiSystem) AddPipeline(name string, p *Pipeline, opts ...PipelineOption) error {
	if name == "" {
		return fmt.Errorf("loki: pipeline needs a name")
	}
	if name == "all" {
		return fmt.Errorf("loki: pipeline name %q is reserved for AggregateReport", name)
	}
	if p == nil {
		return fmt.Errorf("loki: nil pipeline")
	}
	pc := m.cfg.tenant
	pc.Name, pc.Graph = name, p
	for _, o := range opts {
		o(&pc)
	}
	if pc.SLOSec == 0 {
		pc.SLOSec = m.cfg.tenant.SLOSec
	}
	if pc.Policy == nil {
		pc.Policy = m.cfg.tenant.Policy
	}
	if pc.Share < 0 || pc.Share >= 1 {
		return fmt.Errorf("loki: pipeline %q share %.3f outside [0,1)", name, pc.Share)
	}
	if pc.Tier < 0 {
		return fmt.Errorf("loki: pipeline %q tier %d is negative", name, pc.Tier)
	}
	pc.Forecaster, pc.HorizonSec = pc.fc.build(), pc.fc.horizonSec()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("loki: pipeline registration is closed once traffic has been injected")
	}
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("loki: pipeline %q already registered", name)
	}
	if _, err := m.st.Add(pc.Spec); err != nil {
		return err
	}
	m.byName[name] = len(m.st.Tenants) - 1
	return nil
}

// Pipelines lists the registered pipeline names in registration order.
func (m *MultiSystem) Pipelines() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.namesLocked()
}

func (m *MultiSystem) namesLocked() []string {
	out := make([]string, len(m.st.Tenants))
	for i, t := range m.st.Tenants {
		out[i] = t.Name
	}
	return out
}

// buildLocked stands the shared control plane up: the multi-tenant engine
// over the shared pool and the joint controller that partitions it. Called
// under m.mu on the first injection (or eagerly by New for the
// single-pipeline wrapper).
func (m *MultiSystem) buildLocked() error {
	if m.built {
		return nil
	}
	if len(m.st.Tenants) == 0 {
		return fmt.Errorf("loki: no pipelines registered")
	}
	if err := m.st.Build(); err != nil {
		return err
	}
	m.built, m.closed = true, true
	return nil
}

// admit is the shared build→prime→start preamble of every injection path:
// the first call runs the first joint allocation, with openQPS (nil or
// non-positive entries plan keep-warm minimal plans) seeding each tenant's
// demand estimate, then launches the engine. Callers hold m.mu.
func (m *MultiSystem) admit(openQPS []float64) error {
	if m.stopped {
		return ErrStopped
	}
	if err := m.buildLocked(); err != nil {
		return err
	}
	if !m.primed {
		if err := m.st.Prime(openQPS); err != nil {
			return err
		}
		m.primed = true
	}
	if !m.engStarted {
		if err := m.st.Start(); err != nil {
			return err
		}
		m.engStarted = true
	}
	return nil
}

func (m *MultiSystem) index(name string) (int, error) {
	i, ok := m.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownPipeline, name)
	}
	return i, nil
}

// lookup resolves a pipeline name to its index and tenant; built reports
// whether the shared engine and controller exist yet.
func (m *MultiSystem) lookup(name string) (i int, t *stack.Tenant, built bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, err = m.index(name); err != nil {
		return 0, nil, false, err
	}
	return i, m.st.Tenants[i], m.built, nil
}

// Submit admits one request for the named pipeline at the system's current
// time. The context is checked for cancellation before admission.
func (m *MultiSystem) Submit(ctx context.Context, pipeline string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	i, err := m.index(pipeline)
	if err == nil {
		err = m.admit(nil)
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.st.Eng.Submit(i)
}

// Feed plays a workload trace through the named pipeline, blocking until
// the last arrival has been admitted. Other pipelines idle (their keep-warm
// plans stand) but keep serving whatever is in flight. On the Simulated
// engine the traces of successive Feed calls play back to back in virtual
// time; use FeedAll to overlap traces.
func (m *MultiSystem) Feed(pipeline string, tr *Trace) error {
	if tr == nil || len(tr.QPS) == 0 {
		return fmt.Errorf("loki: empty trace")
	}
	return m.FeedAll(map[string]*Trace{pipeline: tr})
}

// FeedAll plays one trace per named pipeline concurrently on the shared
// pool — the multi-tenant serving run. Pipelines absent from the map idle.
// It blocks until the last arrival of the longest trace has been admitted.
func (m *MultiSystem) FeedAll(traces map[string]*Trace) error {
	if len(traces) == 0 {
		return fmt.Errorf("loki: FeedAll needs at least one trace")
	}
	m.mu.Lock()
	arr := make([]*Trace, len(m.st.Tenants))
	open := make([]float64, len(m.st.Tenants))
	var err error
	for name, tr := range traces {
		var i int
		if i, err = m.index(name); err != nil {
			break
		}
		if tr == nil || len(tr.QPS) == 0 {
			err = fmt.Errorf("loki: empty trace for pipeline %q", name)
			break
		}
		arr[i] = tr
		open[i] = tr.QPS[0]
	}
	if err == nil {
		err = m.admit(open)
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.st.Eng.FeedAll(arr)
}

// Stop gracefully drains in-flight requests of every pipeline and shuts the
// system down. Idempotent; after Stop, Submit and Feed return ErrStopped
// while the observation methods keep working on the final state.
func (m *MultiSystem) Stop() error {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return nil
	}
	m.stopped = true
	started := m.engStarted
	m.mu.Unlock()
	if !started {
		return nil
	}
	return m.st.Eng.Stop()
}

// Snapshot returns live counters for the named pipeline without disturbing
// the run (zeros before the first injection).
func (m *MultiSystem) Snapshot(pipeline string) (Snapshot, error) {
	i, t, built, err := m.lookup(pipeline)
	if err != nil || !built {
		return Snapshot{}, err
	}
	obs := m.st.Eng.Observe(i)
	grant, allocates := m.st.Ctrl.Standing(i)
	st := obs.Stats
	snap := Snapshot{
		TimeSec:         obs.TimeSec,
		Arrivals:        st.Injected,
		Completed:       st.Completed,
		Dropped:         st.Dropped,
		Rerouted:        st.Rerouted,
		Shed:            st.Shed,
		InFlight:        st.Injected - st.Completed - st.Dropped,
		ActiveServers:   obs.Active,
		Allocates:       allocates,
		ObservedDemand:  t.Meta.LastObservedDemand(),
		PredictedDemand: t.Meta.PredictedDemand(t.HorizonSec),
		Workers:         obs.Workers,
	}
	if t.Adm != nil {
		snap.AdmittedQPS, snap.ShedQPS = t.Adm.Rates(snap.TimeSec)
		snap.GrantedRateQPS = t.Adm.Rate()
	}
	for _, n := range obs.LiveByClass {
		snap.LiveServers += n
	}
	for _, n := range grant {
		snap.GrantedServers += n
	}
	if classes := t.Meta.Classes(); len(classes) > 1 {
		snap.ActiveServersByClass = byClass(classes, obs.ActiveByClass)
		snap.GrantedServersByClass = byClass(classes, grant)
		snap.LiveServersByClass = byClass(classes, obs.LiveByClass)
	}
	return snap, nil
}

// byClass keys per-class counts by class name.
func byClass(classes []HardwareClass, counts []int) map[string]int {
	out := make(map[string]int, len(classes))
	for c, cl := range classes {
		if c < len(counts) {
			out[cl.Name] = counts[c]
		}
	}
	return out
}

// Plan returns the named pipeline's standing allocation plan (nil before
// the first allocation).
func (m *MultiSystem) Plan(pipeline string) (*Plan, error) {
	i, _, built, err := m.lookup(pipeline)
	if err != nil || !built {
		return nil, err
	}
	return m.st.Ctrl.PlanOf(i), nil
}

// Routes returns the named pipeline's standing routing tables (nil before
// the first allocation).
func (m *MultiSystem) Routes(pipeline string) (*Routes, error) {
	i, _, built, err := m.lookup(pipeline)
	if err != nil || !built {
		return nil, err
	}
	return m.st.Ctrl.RoutesOf(i), nil
}

// Grants returns the servers currently granted to each pipeline by the
// joint allocator. The values sum to at most the pool size.
func (m *MultiSystem) Grants() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := make([]int, len(m.st.Tenants))
	if m.built {
		g = m.st.Ctrl.Grants()
	}
	out := make(map[string]int, len(g))
	for i, t := range m.st.Tenants {
		out[t.Name] = g[i]
	}
	return out
}

// GrantedRate returns the named pipeline's granted frontend capacity in
// requests per second: the summed service rate of the root-task replicas in
// its standing routing tables — the rate an armed admission controller
// admits at. Zero before the first allocation; available with or without
// WithAdmission.
func (m *MultiSystem) GrantedRate(pipeline string) (float64, error) {
	i, _, built, err := m.lookup(pipeline)
	if err != nil || !built {
		return 0, err
	}
	return ingress.FrontendRate(m.st.Ctrl.RoutesOf(i)), nil
}

// ServeHTTP exposes the system over HTTP (the ingress front door):
//
//	POST /v1/{pipeline}/infer     admit one request (202, or 429 + Retry-After
//	                              when WithAdmission sheds it)
//	GET  /v1/{pipeline}/snapshot  live Snapshot as JSON
//	GET  /metrics                 Prometheus text exposition of the telemetry
//	                              plane (absent under WithTelemetry(false))
//	GET  /healthz                 200 while serving, 503 while draining
//
// The first request freezes pipeline registration (like the first injection).
// Mount it on any http.Server; handlers are safe for concurrent use on the
// Wallclock engine, which is the engine a networked front door wants —
// virtual time does not advance between requests on the Simulated engine.
func (m *MultiSystem) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.httpOnce.Do(func() {
		// The front door's pipeline table is fixed here, so registration
		// closes with it: a pipeline added later would answer 404 forever.
		m.mu.Lock()
		m.closed = true
		names := m.namesLocked()
		m.mu.Unlock()
		var metricsFn func(io.Writer)
		if reg := m.st.Registry; reg != nil {
			metricsFn = func(w io.Writer) { reg.WritePrometheus(w) }
		}
		m.httpSrv = ingress.NewServer(ingress.ServerConfig{
			Pipelines: names,
			Submit:    m.Submit,
			Snapshot:  func(pipeline string) (any, error) { return m.Snapshot(pipeline) },
			Draining:  m.draining.Load,
			Metrics:   metricsFn,
		})
	})
	m.httpSrv.ServeHTTP(w, r)
}

// Drain puts the HTTP front door into draining mode: infer requests and
// health checks answer 503 (telling load balancers to stop sending traffic)
// while in-flight work keeps being served and the observation endpoints stay
// up. Draining is one-way; follow with Stop to wait out the in-flight work.
// Direct Submit and Feed calls are unaffected.
func (m *MultiSystem) Drain() { m.draining.Store(true) }

// Report summarizes the named pipeline's run so far with the §6.1 metrics,
// labeled with the pipeline name.
func (m *MultiSystem) Report(pipeline string) (*Report, error) {
	i, _, _, err := m.lookup(pipeline)
	if err != nil {
		return nil, err
	}
	return m.reportOf(i), nil
}

func (m *MultiSystem) reportOf(i int) *Report {
	m.mu.Lock()
	t := m.st.Tenants[i]
	eng := m.st.Eng // nil until the first injection
	m.mu.Unlock()
	sum := t.Col.Summarize()
	var rerouted int64
	if eng != nil {
		rerouted = eng.Observe(i).Stats.Rerouted
	}
	r := summaryToReport(sum, rerouted)
	r.Pipeline = t.Name
	r.Series = t.Col.Series()
	r.Stages = t.Tracer.StageSummary()
	return r
}

// Telemetry returns the system's metric registry: per-worker serving gauges,
// planner counters, and everything else the telemetry plane maintains, for
// programmatic access (Gather) or Prometheus-text rendering
// (WritePrometheus — the bytes GET /metrics serves). Nil under
// WithTelemetry(false).
func (m *MultiSystem) Telemetry() *TelemetryRegistry { return m.st.Registry }

// WriteTraces writes every pipeline's sampled request traces as indented
// JSON: an array with one {tenant, stages, traces} object per registered
// pipeline, in registration order. Stages carries the per-stage latency
// summary (Report.Stages); traces the individual span trees. With tracing
// off (WithTelemetry(false) or WithTraceSampling(0)) each entry is empty.
// The serving CLIs expose this as lokiserve -trace-out.
func (m *MultiSystem) WriteTraces(w io.Writer) error {
	m.mu.Lock()
	tenants := append([]*stack.Tenant(nil), m.st.Tenants...)
	m.mu.Unlock()
	exports := make([]json.RawMessage, 0, len(tenants))
	for _, t := range tenants {
		b, err := t.Tracer.ExportJSON()
		if err != nil {
			return err
		}
		exports = append(exports, b)
	}
	b, err := json.MarshalIndent(exports, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Reports returns every pipeline's Report, keyed by name.
func (m *MultiSystem) Reports() map[string]*Report {
	m.mu.Lock()
	n := len(m.st.Tenants)
	m.mu.Unlock()
	out := make(map[string]*Report, n)
	for i := 0; i < n; i++ {
		r := m.reportOf(i)
		out[r.Pipeline] = r
	}
	return out
}

// AggregateReport merges every pipeline's metrics into one pool-wide Report
// labeled "all": request counts sum; accuracy, violation ratio, and latency
// are weighted across pipelines; the server columns add per-pipeline means
// (the pipelines partition one pool, so the sums are the pool's activity).
// Series is nil — per-pipeline time series stay on the per-pipeline
// Reports, so mixed-tenant numbers are never silently summed.
func (m *MultiSystem) AggregateReport() *Report {
	m.mu.Lock()
	tenants := append([]*stack.Tenant(nil), m.st.Tenants...)
	eng := m.st.Eng
	m.mu.Unlock()
	sums := make([]metrics.Summary, len(tenants))
	var rerouted int64
	for i, t := range tenants {
		sums[i] = t.Col.Summarize()
		if eng != nil {
			rerouted += eng.Observe(i).Stats.Rerouted
		}
	}
	r := summaryToReport(metrics.Merge(sums...), rerouted)
	r.Pipeline = "all"
	return r
}

// summaryToReport maps a metrics summary (plus the engine's reroute count)
// onto the public Report shape.
func summaryToReport(sum metrics.Summary, rerouted int64) *Report {
	r := &Report{
		Accuracy:          sum.MeanAccuracy,
		SLOViolationRatio: sum.ViolationRatio,
		MeanServers:       sum.MeanServers,
		MinServers:        sum.MinServers,
		MaxServers:        sum.MaxServers,
		MeanLatency:       time.Duration(sum.MeanLatency * float64(time.Second)),
		LatencyP50:        time.Duration(sum.LatencyP50 * float64(time.Second)),
		LatencyP99:        time.Duration(sum.LatencyP99 * float64(time.Second)),
		Arrivals:          int64(sum.Arrivals),
		Completed:         int64(sum.Completed),
		Late:              int64(sum.Late),
		Dropped:           int64(sum.Dropped),
		Rerouted:          rerouted,
		Admitted:          int64(sum.Admitted),
		Shed:              int64(sum.Shed),
		ServerCostHours:   sum.CostHours,
	}
	if len(sum.ClassNames) > 0 {
		r.MeanServersByClass = map[string]float64{}
		for i, name := range sum.ClassNames {
			r.MeanServersByClass[name] = sum.MeanServersByClass[i]
		}
	}
	if answered := r.Completed + r.Late; answered > 0 && r.ServerCostHours > 0 {
		r.CostPerQuery = r.ServerCostHours / float64(answered)
	}
	return r
}
