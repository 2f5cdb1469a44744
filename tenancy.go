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

	"loki/internal/core"
	"loki/internal/engine"
	"loki/internal/ingress"
	"loki/internal/metrics"
	"loki/internal/telemetry"
)

// ErrUnknownPipeline is returned when a MultiSystem method names a pipeline
// that was never registered with AddPipeline.
var ErrUnknownPipeline = errors.New("loki: unknown pipeline")

// pipelineConfig holds the per-pipeline knobs of a multi-tenant System.
// Zero values inherit the system-wide Option defaults.
type pipelineConfig struct {
	slo      time.Duration
	pol      Policy
	share    float64
	baseline Baseline
	baseSet  bool
	fc       forecastConfig
	tier     int
}

// PipelineOption configures one pipeline registered with
// MultiSystem.AddPipeline. System-wide Options (WithSLO, WithPolicy,
// WithBaseline) set the defaults; PipelineOptions override them per
// pipeline.
type PipelineOption func(*pipelineConfig)

// WithPipelineSLO sets this pipeline's end-to-end latency SLO, overriding
// the system-wide WithSLO default.
func WithPipelineSLO(d time.Duration) PipelineOption {
	return func(c *pipelineConfig) { c.slo = d }
}

// WithPipelinePolicy sets this pipeline's early-dropping policy, overriding
// the system-wide WithPolicy default.
func WithPipelinePolicy(p Policy) PipelineOption {
	return func(c *pipelineConfig) { c.pol = p }
}

// WithShare guarantees this pipeline a minimum fraction of the server pool
// when combined demand exceeds it. Pipelines without an explicit share split
// the unreserved fraction equally. Shares only bind under contention: an
// idle pipeline's guarantee is lent to whoever needs it and reclaimed on the
// next adaptation round.
func WithShare(f float64) PipelineOption {
	return func(c *pipelineConfig) { c.share = f }
}

// WithPipelineBaseline plans this pipeline with a baseline strategy instead
// of Loki's MILP, overriding the system-wide WithBaseline default. On a
// shared pool the baseline must support capped solves (BaselineInferLine
// does; BaselineProteus is single-tenant only).
func WithPipelineBaseline(b Baseline) PipelineOption {
	return func(c *pipelineConfig) { c.baseline = b; c.baseSet = true }
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
		c.tier = tier
		if slo > 0 {
			c.slo = slo
		}
	}
}

// msTenant is one registered pipeline with its per-tenant control-plane
// pieces (built eagerly by AddPipeline so configuration errors surface
// there).
type msTenant struct {
	name    string
	pipe    *Pipeline
	pcfg    pipelineConfig
	meta    *core.MetadataStore
	planner core.Planner
	col     *metrics.Collector
	ecfg    engine.TenantConfig
	// adm is the pipeline's admission controller (nil unless WithAdmission
	// armed one); its target rate is refreshed on every plan publication.
	adm *ingress.Admission
	// fcHorizon is the resolved forecast planning horizon in seconds.
	fcHorizon float64
	// tel and tracer are the pipeline's telemetry collector and request
	// tracer, built in buildLocked (nil under WithTelemetry(false); tracer
	// also nil at sample probability zero).
	tel    *telemetry.Collector
	tracer *telemetry.Tracer
}

// MultiSystem serves several pipelines on one shared server pool. Register
// pipelines with AddPipeline, then inject traffic per pipeline (Submit,
// Feed) or for all at once (FeedAll); the joint Resource Manager partitions
// the pool across pipelines on every adaptation round, so a traffic spike
// in one pipeline steals servers another is not using, while WithShare
// guarantees hold under contention. Each pipeline keeps its own routing
// tables, metrics, and Report.
//
// The first injection freezes registration and stands the control plane up;
// the same engine-threading rules as System apply (single goroutine on the
// Simulated engine, concurrent use on Wallclock).
type MultiSystem struct {
	cfg config

	mu         sync.Mutex
	byName     map[string]int
	tenants    []*msTenant
	built      bool
	primed     bool
	engStarted bool
	stopped    bool

	eng  engine.MultiEngine
	ctrl *core.MultiController

	// reg is the telemetry plane's metric registry, shared by every tenant's
	// collector and the joint planner (nil under WithTelemetry(false)).
	reg *telemetry.Registry

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
	// With explicit hardware classes the pool size is their total count;
	// validate the fleet here so a bad WithHardware fails at construction.
	if _, total, err := c.resolvedClasses(); err != nil {
		return nil, err
	} else if len(c.hardware) > 0 {
		c.servers = total
	}
	if c.servers <= 0 {
		return nil, fmt.Errorf("loki: multi-tenant pool needs a positive server count, got %d", c.servers)
	}
	m := &MultiSystem{cfg: c, byName: map[string]int{}}
	if !c.telemetryOff {
		m.reg = telemetry.NewRegistry()
	}
	return m, nil
}

// AddPipeline registers a pipeline under a unique name. It validates the
// pipeline, profiles its variants, and builds its planner immediately, so
// infeasible configurations (for example an SLO no variant can meet) fail
// here. Registration closes once traffic has been injected.
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
	if err := p.Validate(); err != nil {
		return err
	}
	pc := pipelineConfig{}
	for _, o := range opts {
		o(&pc)
	}
	if pc.slo == 0 {
		pc.slo = m.cfg.slo
	}
	if pc.pol == nil {
		pc.pol = m.cfg.pol
	}
	if !pc.baseSet {
		pc.baseline = m.cfg.baseline
	}
	if !pc.fc.set {
		pc.fc = m.cfg.fc
	}
	if pc.share < 0 || pc.share >= 1 {
		return fmt.Errorf("loki: pipeline %q share %.3f outside [0,1)", name, pc.share)
	}
	if pc.tier < 0 {
		return fmt.Errorf("loki: pipeline %q tier %d is negative", name, pc.tier)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.built {
		return fmt.Errorf("loki: pipeline registration is closed once traffic has been injected")
	}
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("loki: pipeline %q already registered", name)
	}

	tc := m.cfg
	tc.slo = pc.slo
	meta, aopts, err := metaAndOpts(p, tc)
	if err != nil {
		return err
	}
	if f := pc.fc.build(); f != nil {
		meta.SetForecaster(f)
	}
	planner, proteus, err := newPlannerFor(pc.baseline, meta, aopts)
	if err != nil {
		return err
	}
	col := metrics.NewCollector(30, m.cfg.servers)
	// Arm per-class occupancy (and, when priced, cost) accounting on
	// heterogeneous or priced fleets; the plain homogeneous zero-cost path
	// keeps its recorded reports bit for bit.
	if classes := meta.Classes(); len(classes) > 1 || classes[0].CostPerHour > 0 {
		names := make([]string, len(classes))
		costs := make([]float64, len(classes))
		for i, cl := range classes {
			names[i] = cl.Name
			costs[i] = cl.CostPerHour
		}
		col.SetClasses(names, costs)
	}
	t := &msTenant{
		name:      name,
		pipe:      p,
		pcfg:      pc,
		meta:      meta,
		planner:   planner,
		col:       col,
		fcHorizon: pc.fc.horizonSec(),
		ecfg: engine.TenantConfig{
			Meta:      meta,
			Policy:    pc.pol,
			Collector: col,
			SLOSec:    pc.slo.Seconds(),
			Tier:      pc.tier,
		},
	}
	if proteus != nil {
		t.ecfg.OnTaskDemand = proteus.ObserveTaskDemand
	}
	if m.cfg.admission {
		t.adm = ingress.NewAdmission(ingress.Config{
			SLOSec: pc.slo.Seconds(),
			// Granted routes carry the planner's headroom-inflated ceiling;
			// admit at the demand the plan was actually sized for.
			TargetUtilization: 1 / (1 + m.cfg.headroomOrDefault()),
		})
		t.ecfg.Admission = t.adm
	}
	m.byName[name] = len(m.tenants)
	m.tenants = append(m.tenants, t)
	return nil
}

// Pipelines lists the registered pipeline names in registration order.
func (m *MultiSystem) Pipelines() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = t.name
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
	if len(m.tenants) == 0 {
		return fmt.Errorf("loki: no pipelines registered")
	}
	classes, _, err := m.cfg.resolvedClasses()
	if err != nil {
		return err
	}
	mc := engine.MultiConfig{
		Servers:        m.cfg.servers,
		Classes:        classes,
		NetLatencySec:  m.cfg.netLatency.Seconds(),
		Seed:           m.cfg.seed,
		SwapLatencySec: m.cfg.swap.Seconds(),
		ExecJitter:     m.cfg.jitter,
		TimeScale:      m.cfg.timeScale,
		Faults:         m.cfg.faultSchedule(),
		OnFault:        m.cfg.onFault,
	}
	for i, t := range m.tenants {
		if m.reg != nil {
			// The collector mirrors the engine's physical worker layout
			// (class by class, in class order); the tracer samples from its
			// own seeded stream, disjoint from the per-tenant cluster
			// (seed+1+2i) and arrival (seed+2+2i) streams, so telemetry
			// never perturbs serving.
			var colOpts []telemetry.CollectorOption
			if m.cfg.workerMetricsSet {
				colOpts = append(colOpts, telemetry.WithWorkerMetricsLimit(m.cfg.workerMetricsLimit))
			}
			t.tel = telemetry.NewCollector(m.reg, t.name, telemetryClasses(classes), colOpts...)
			prob := m.cfg.traceProb
			if !m.cfg.traceSet {
				prob = 1.0 / 64
			}
			t.tracer = telemetry.NewTracer(t.name, prob, m.cfg.seed+9001+2*int64(i))
			t.ecfg.Telemetry = t.tel
			t.ecfg.Tracer = t.tracer
		}
		mc.Tenants = append(mc.Tenants, t.ecfg)
	}
	eng, err := engine.NewMulti(engine.Kind(m.cfg.engine), mc)
	if err != nil {
		return err
	}
	ctenants := make([]*core.Tenant, len(m.tenants))
	for i, t := range m.tenants {
		i, adm := i, t.adm
		// An admission-fronted tenant never has to plan for overload: the
		// front door sheds whatever the pool cannot serve within the SLO, so
		// cap its planning demand at that capacity. Without the cap an
		// overload pushes the planner into a saturated throughput-optimal
		// plan whose oversized batches miss the SLO by construction, and
		// admission throttling arrivals into such a plan only starves its
		// batches. MaxCapacity bisects with feasibility probes, about 16 on
		// a 20-server pool, most decided by one LP relaxation and a few by a
		// branch and bound stopped at its first integer point, then solves
		// the capacity itself in full for the warm start this tenant's
		// first plans fall back on (≈0.6 s in all for traffic-analysis);
		// it runs once, here, at control-plane build time.
		var demandCap float64
		if adm != nil {
			if alloc, ok := t.planner.(*core.Allocator); ok {
				demandCap = alloc.MaxCapacity(0, 20000)
			}
		}
		ctenants[i] = &core.Tenant{
			Name:               t.name,
			Tier:               t.pcfg.tier,
			Meta:               t.meta,
			Alloc:              t.planner,
			MinShare:           t.pcfg.share,
			RouteHeadroom:      m.cfg.headroomOrDefault(),
			ForecastHorizonSec: t.fcHorizon,
			DemandCapQPS:       demandCap,
			CacheDisabled:      m.cfg.plannerCacheOff,
			// The engine retargets the admission controller on every
			// publication.
			Publish: func(plan *core.Plan, routes *core.Routes) { eng.ApplyPlan(i, plan, routes) },
		}
	}
	ctrl, err := core.NewMultiController(m.cfg.servers, ctenants)
	if err != nil {
		return err
	}
	ctrl.SetTelemetry(m.reg)
	m.eng = eng
	m.ctrl = ctrl
	m.built = true
	return nil
}

// primeLocked runs the first joint allocation if none has happened yet.
// openQPS seeds each tenant's demand estimate (nil or zero entries allocate
// keep-warm minimal plans).
func (m *MultiSystem) primeLocked(openQPS []float64) error {
	if m.primed {
		return nil
	}
	for i, t := range m.tenants {
		if openQPS != nil && openQPS[i] > 0 {
			t.meta.ObserveDemand(openQPS[i])
		}
	}
	if err := m.ctrl.Step(true); err != nil {
		return err
	}
	m.primed = true
	return nil
}

// startLocked launches the engine on the first injection (after priming).
func (m *MultiSystem) startLocked() error {
	if m.engStarted {
		return nil
	}
	if err := m.eng.Start(m.ctrl); err != nil {
		return err
	}
	m.engStarted = true
	return nil
}

// admit is the shared build→prime→start preamble of every injection path.
// Callers hold m.mu.
func (m *MultiSystem) admit(openQPS []float64) error {
	if m.stopped {
		return ErrStopped
	}
	if err := m.buildLocked(); err != nil {
		return err
	}
	if err := m.primeLocked(openQPS); err != nil {
		return err
	}
	return m.startLocked()
}

func (m *MultiSystem) index(name string) (int, error) {
	i, ok := m.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownPipeline, name)
	}
	return i, nil
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
	return m.eng.Submit(i)
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
	m.mu.Lock()
	i, err := m.index(pipeline)
	var traces []*Trace
	if err == nil {
		traces = make([]*Trace, len(m.tenants))
		traces[i] = tr
		open := make([]float64, len(m.tenants))
		open[i] = tr.QPS[0]
		err = m.admit(open)
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.eng.FeedAll(traces)
}

// FeedAll plays one trace per named pipeline concurrently on the shared
// pool — the multi-tenant serving run. Pipelines absent from the map idle.
// It blocks until the last arrival of the longest trace has been admitted.
func (m *MultiSystem) FeedAll(traces map[string]*Trace) error {
	if len(traces) == 0 {
		return fmt.Errorf("loki: FeedAll needs at least one trace")
	}
	m.mu.Lock()
	arr := make([]*Trace, len(m.tenants))
	open := make([]float64, len(m.tenants))
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
	return m.eng.FeedAll(arr)
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
	return m.eng.Stop()
}

// Snapshot returns live counters for the named pipeline without disturbing
// the run (zeros before the first injection).
func (m *MultiSystem) Snapshot(pipeline string) (Snapshot, error) {
	m.mu.Lock()
	i, err := m.index(pipeline)
	built := m.built
	var t *msTenant
	if err == nil {
		t = m.tenants[i]
	}
	m.mu.Unlock()
	if err != nil {
		return Snapshot{}, err
	}
	if !built {
		return Snapshot{}, nil
	}
	st := m.eng.Stats(i)
	snap := Snapshot{
		TimeSec:         m.eng.Now(),
		Arrivals:        st.Injected,
		Completed:       st.Completed,
		Dropped:         st.Dropped,
		Rerouted:        st.Rerouted,
		Shed:            st.Shed,
		InFlight:        st.Injected - st.Completed - st.Dropped,
		ActiveServers:   m.eng.ActiveServers(i),
		GrantedServers:  m.ctrl.Grants()[i],
		Allocates:       m.ctrl.AllocatesOf(i),
		ObservedDemand:  t.meta.LastObservedDemand(),
		PredictedDemand: t.meta.PredictedDemand(t.fcHorizon),
	}
	if t.adm != nil {
		snap.AdmittedQPS, snap.ShedQPS = t.adm.Rates(snap.TimeSec)
		snap.GrantedRateQPS = t.adm.Rate()
	}
	snap.Workers = t.tel.Rows()
	live := t.meta.LiveClassCounts()
	for _, n := range live {
		snap.LiveServers += n
	}
	if classes := t.meta.Classes(); len(classes) > 1 {
		active := m.eng.ActiveByClass(i)
		grants := m.ctrl.ClassGrants()[i]
		snap.ActiveServersByClass = map[string]int{}
		snap.GrantedServersByClass = map[string]int{}
		snap.LiveServersByClass = map[string]int{}
		for c, cl := range classes {
			if c < len(active) {
				snap.ActiveServersByClass[cl.Name] = active[c]
			}
			if c < len(grants) {
				snap.GrantedServersByClass[cl.Name] = grants[c]
			}
			if c < len(live) {
				snap.LiveServersByClass[cl.Name] = live[c]
			}
		}
	}
	return snap, nil
}

// Plan returns the named pipeline's standing allocation plan (nil before
// the first allocation).
func (m *MultiSystem) Plan(pipeline string) (*Plan, error) {
	m.mu.Lock()
	i, err := m.index(pipeline)
	built := m.built
	m.mu.Unlock()
	if err != nil || !built {
		return nil, err
	}
	return m.ctrl.PlanOf(i), nil
}

// Routes returns the named pipeline's standing routing tables (nil before
// the first allocation).
func (m *MultiSystem) Routes(pipeline string) (*Routes, error) {
	m.mu.Lock()
	i, err := m.index(pipeline)
	built := m.built
	m.mu.Unlock()
	if err != nil || !built {
		return nil, err
	}
	return m.ctrl.RoutesOf(i), nil
}

// Grants returns the servers currently granted to each pipeline by the
// joint allocator. The values sum to at most the pool size.
func (m *MultiSystem) Grants() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.tenants))
	if !m.built {
		for _, t := range m.tenants {
			out[t.name] = 0
		}
		return out
	}
	g := m.ctrl.Grants()
	for i, t := range m.tenants {
		out[t.name] = g[i]
	}
	return out
}

// GrantedRate returns the named pipeline's granted frontend capacity in
// requests per second: the summed service rate of the root-task replicas in
// its standing routing tables — the rate an armed admission controller
// admits at. Zero before the first allocation; available with or without
// WithAdmission.
func (m *MultiSystem) GrantedRate(pipeline string) (float64, error) {
	m.mu.Lock()
	i, err := m.index(pipeline)
	built := m.built
	m.mu.Unlock()
	if err != nil || !built {
		return 0, err
	}
	return ingress.FrontendRate(m.ctrl.RoutesOf(i)), nil
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
		var metricsFn func(io.Writer)
		if reg := m.reg; reg != nil {
			metricsFn = func(w io.Writer) { reg.WritePrometheus(w) }
		}
		m.httpSrv = ingress.NewServer(ingress.ServerConfig{
			Pipelines: m.Pipelines(),
			Submit:    m.Submit,
			Snapshot: func(pipeline string) (any, error) {
				return m.Snapshot(pipeline)
			},
			Draining: m.draining.Load,
			Metrics:  metricsFn,
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
	m.mu.Lock()
	i, err := m.index(pipeline)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return m.reportOf(i), nil
}

func (m *MultiSystem) reportOf(i int) *Report {
	m.mu.Lock()
	t := m.tenants[i]
	built := m.built
	eng := m.eng
	m.mu.Unlock()
	sum := t.col.Summarize()
	var rerouted int64
	if built {
		rerouted = eng.Stats(i).Rerouted
	}
	r := summaryToReport(sum, rerouted)
	r.Pipeline = t.name
	r.Series = t.col.Series()
	r.Stages = t.tracer.StageSummary()
	return r
}

// Telemetry returns the system's metric registry: per-worker serving gauges,
// planner counters, and everything else the telemetry plane maintains, for
// programmatic access (Gather) or Prometheus-text rendering
// (WritePrometheus — the bytes GET /metrics serves). Nil under
// WithTelemetry(false).
func (m *MultiSystem) Telemetry() *TelemetryRegistry { return m.reg }

// WriteTraces writes every pipeline's sampled request traces as indented
// JSON: an array with one {tenant, stages, traces} object per registered
// pipeline, in registration order. Stages carries the per-stage latency
// summary (Report.Stages); traces the individual span trees. With tracing
// off (WithTelemetry(false) or WithTraceSampling(0)) each entry is empty.
// The serving CLIs expose this as lokiserve -trace-out.
func (m *MultiSystem) WriteTraces(w io.Writer) error {
	m.mu.Lock()
	tenants := append([]*msTenant(nil), m.tenants...)
	m.mu.Unlock()
	exports := make([]json.RawMessage, 0, len(tenants))
	for _, t := range tenants {
		b, err := t.tracer.ExportJSON()
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
	n := len(m.tenants)
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
	tenants := append([]*msTenant(nil), m.tenants...)
	built := m.built
	eng := m.eng
	m.mu.Unlock()
	sums := make([]metrics.Summary, len(tenants))
	var rerouted int64
	for i, t := range tenants {
		sums[i] = t.col.Summarize()
		if built {
			rerouted += eng.Stats(i).Rerouted
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
