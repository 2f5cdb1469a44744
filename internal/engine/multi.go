package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"loki/internal/cluster"
	"loki/internal/core"
	"loki/internal/fault"
	"loki/internal/ingress"
	"loki/internal/live"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/sim"
	"loki/internal/telemetry"
	"loki/internal/trace"
)

// TenantConfig is the per-pipeline slice of a multi-tenant backend: its own
// Metadata Store, metrics collector, SLO, and drop policy. The host pool,
// clock, and network model are shared across tenants (MultiConfig).
type TenantConfig struct {
	Meta      *core.MetadataStore
	Policy    policy.Policy
	Collector *metrics.Collector
	SLOSec    float64

	// OnTaskDemand receives this tenant's per-task arrival counts every
	// housekeeping second (the Proteus-like baseline's per-task history).
	OnTaskDemand func(task pipeline.TaskID, count float64)

	// Admission, when non-nil, fronts every injection path of this tenant
	// (Submit and FeedAll alike): requests it refuses are shed — counted in
	// Stats.Shed and the collector's shed series, still part of the observed
	// demand the planner sees, but never queued.
	Admission *ingress.Admission

	// Tier is the tenant's service tier, echoed on every shed decision
	// (ingress.ShedError.Tier) so 429 responses carry which class of
	// traffic was refused.
	Tier int

	// Telemetry, when non-nil, is this tenant's per-worker collector; the
	// backend feeds it enqueue/batch/swap/fault events and samples it each
	// housekeeping second. Nil disables collection.
	Telemetry *telemetry.Collector
	// Tracer, when non-nil, samples this tenant's requests into span trees.
	Tracer *telemetry.Tracer
}

// MultiConfig assembles a multi-tenant backend: the shared pool-level knobs
// plus one TenantConfig per pipeline. Tenant order is significant — it must
// match the tenant order of the core.MultiController driving the backend.
type MultiConfig struct {
	// Servers is the shared pool size. Each tenant engine exposes this many
	// physical slots; the joint controller's grants keep the sum of active
	// workers within it.
	Servers int
	// Classes partitions the shared pool into hardware classes, identically
	// for every tenant (see cluster.Options.Classes). Nil means one
	// homogeneous "default" class.
	Classes        []profiles.Class
	NetLatencySec  float64
	Seed           int64
	SwapLatencySec float64
	ExecJitter     float64
	QueueFactor    float64
	RMIntervalSec  float64
	LBIntervalSec  float64

	// TimeScale compresses the wall-clock backend's real time; ignored by
	// the simulator.
	TimeScale float64

	// Faults, when non-nil, is the fault schedule injected into the shared
	// pool. Event times are anchored to the start of the first FeedAll (the
	// simulator schedules them as virtual-time events, the wall-clock
	// backend as scaled timers from Start). Every fault updates each
	// tenant's MetadataStore live counts and, when the controller
	// implements core.CapacityObserver, triggers a re-plan within a round.
	Faults *fault.Schedule

	// OnFault, when non-nil, observes every fault and recovery event with
	// the backend's time and a human-readable description (the lokiserve
	// status line).
	OnFault func(timeSec float64, desc string)

	Tenants []TenantConfig
}

func (c *MultiConfig) defaults() error {
	if len(c.Tenants) == 0 {
		return errors.New("engine: MultiConfig needs at least one tenant")
	}
	for i := range c.Tenants {
		t := &c.Tenants[i]
		if t.Meta == nil {
			return fmt.Errorf("engine: tenant %d: Meta is required", i)
		}
		if t.Collector == nil {
			return fmt.Errorf("engine: tenant %d: Collector is required", i)
		}
		if t.Policy == nil {
			t.Policy = policy.Opportunistic{}
		}
	}
	if c.RMIntervalSec == 0 {
		c.RMIntervalSec = 10
	}
	if c.LBIntervalSec == 0 {
		c.LBIntervalSec = 1
	}
	return nil
}

// MultiEngine is a serving backend hosting several pipelines on one shared
// pool and clock. Tenants are addressed by their index in
// MultiConfig.Tenants. The lifecycle mirrors Engine:
// Start → {Submit | Feed | FeedAll}* → Stop.
type MultiEngine interface {
	// ApplyPlan installs one tenant's plan and routing tables (the joint
	// controller's per-tenant publish target).
	ApplyPlan(tenant int, plan *core.Plan, routes *core.Routes)

	// Start launches workers and housekeeping; the given controller is
	// stepped jointly on the periodic intervals until Stop.
	Start(ctrl core.Control) error

	// Submit admits a single request for one tenant at the backend's
	// current time.
	Submit(tenant int) error

	// FeedAll plays one trace per tenant (indexed like MultiConfig.Tenants;
	// nil entries idle) as concurrent Poisson arrival processes on the
	// shared clock, blocking until the last arrival of the longest trace
	// has been admitted.
	FeedAll(traces []*trace.Trace) error

	// Stop drains in-flight requests of every tenant and shuts the backend
	// down.
	Stop() error

	// Stats returns one tenant's cumulative request totals.
	Stats(tenant int) Stats

	// Now returns the backend's shared time in seconds since Start.
	Now() float64

	// ActiveServers counts one tenant's workers currently hosting a model.
	ActiveServers(tenant int) int

	// ActiveByClass counts one tenant's workers currently hosting a model
	// in each hardware class, in class order.
	ActiveByClass(tenant int) []int
}

// NewMulti builds the multi-tenant backend of the given kind — the shared
// constructor behind loki.MultiSystem and the multi-tenant experiments.
func NewMulti(k Kind, cfg MultiConfig) (MultiEngine, error) {
	switch k {
	case KindSimulated:
		return newMultiSimulated(cfg)
	case KindWallclock:
		return newMultiWallclock(cfg)
	default:
		return nil, fmt.Errorf("engine: unknown kind %d", k)
	}
}

// multiSimulated hosts one cluster.Cluster per tenant on a single
// discrete-event clock. Virtual time advances only inside FeedAll and Stop,
// so the adapter must be driven from one goroutine. Seeds are offset per
// tenant (tenant i: cluster Seed+1+2i, arrivals Seed+2+2i) so tenant 0 of a
// one-tenant system reproduces the single-pipeline backend bit for bit.
type multiSimulated struct {
	cfg  MultiConfig
	eng  *sim.Engine
	cls  []*cluster.Cluster
	ctrl core.Control

	arrRngs []*rand.Rand
	started bool
	stopped bool
	stepErr error

	shed      []int64 // cumulative per-tenant shed counts
	shedFlush []int64 // shed since the last housekeeping flush (offered demand)

	// Fault injection: the pool-level fault state, the compiled timeline,
	// and whether FeedAll has armed it (events anchor to the first feed).
	fp          *faultPool
	timeline    []fault.Timed
	faultsArmed bool
}

func newMultiSimulated(cfg MultiConfig) (MultiEngine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	eng := &sim.Engine{}
	m := &multiSimulated{cfg: cfg, eng: eng}
	for i, t := range cfg.Tenants {
		cl, err := cluster.New(eng, t.Meta, t.Policy, t.Collector, cluster.Options{
			Servers:        cfg.Servers,
			Classes:        cfg.Classes,
			SLOSec:         t.SLOSec,
			NetLatencySec:  cfg.NetLatencySec,
			Seed:           cfg.Seed + 1 + 2*int64(i),
			SwapLatencySec: cfg.SwapLatencySec,
			ExecJitter:     cfg.ExecJitter,
			QueueFactor:    cfg.QueueFactor,
			Telemetry:      t.Telemetry,
			Tracer:         t.Tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: tenant %d: %w", i, err)
		}
		m.cls = append(m.cls, cl)
	}
	m.shed = make([]int64, len(cfg.Tenants))
	m.shedFlush = make([]int64, len(cfg.Tenants))
	if cfg.Faults != nil {
		m.fp = newFaultPool(cfg.Servers, cfg.Classes)
		tl, err := compileFaults(cfg.Faults, m.fp)
		if err != nil {
			return nil, err
		}
		m.timeline = tl
	}
	return m, nil
}

// Fail, Recover, Slow, and Restore implement fault.Target on the shared
// pool: victims are chosen once at the pool level and applied to every
// tenant's cluster (each models the same physical machines), then the live
// per-class counts are pushed to the metadata stores and the controller.
func (m *multiSimulated) Fail(class, n int) []int {
	phys := m.fp.pickFail(class, n)
	for _, cl := range m.cls {
		for _, p := range phys {
			cl.SetWorkerDown(p)
		}
	}
	m.publishLive()
	return phys
}

func (m *multiSimulated) Recover(phys []int) {
	m.fp.recover(phys)
	for _, cl := range m.cls {
		for _, p := range phys {
			cl.SetWorkerUp(p)
		}
	}
	m.publishLive()
}

func (m *multiSimulated) Slow(class, n int, factor float64) []int {
	phys := m.fp.pickSlow(class, n)
	for _, cl := range m.cls {
		for _, p := range phys {
			cl.SetWorkerSpeedFactor(p, factor)
		}
	}
	return phys
}

func (m *multiSimulated) Restore(phys []int) {
	m.fp.restore(phys)
	for _, cl := range m.cls {
		for _, p := range phys {
			cl.SetWorkerSpeedFactor(p, 1)
		}
	}
}

// publishLive pushes the pool's per-class up counts to every tenant's
// MetadataStore (Snapshot reports them) and to the controller when it
// re-plans against live capacity.
func (m *multiSimulated) publishLive() {
	live := m.fp.live()
	var forMeta []int
	if m.fp.anyDown() {
		forMeta = live
	}
	for i := range m.cfg.Tenants {
		m.cfg.Tenants[i].Meta.SetLiveClassCounts(forMeta)
	}
	if co, ok := m.ctrl.(core.CapacityObserver); ok {
		co.ObserveCapacity(live)
	}
}

// admit consults tenant i's admission controller at the current virtual
// instant. A refused request is shed: counted, reported to the collector, and
// folded into the next demand observation (housekeepTenant), but never
// injected. Tenants without a controller always admit.
func (m *multiSimulated) admit(i int) (ok bool, retryAfterSec float64) {
	t := &m.cfg.Tenants[i]
	if t.Admission == nil {
		return true, 0
	}
	now := m.eng.Now()
	inj, comp, drop, _, _ := m.cls[i].Totals()
	ok, retry := t.Admission.Admit(now, inj-comp-drop)
	if ok {
		t.Collector.Admitted(now)
		return true, 0
	}
	m.shed[i]++
	m.shedFlush[i]++
	t.Collector.Shed(now)
	return false, retry
}

func (m *multiSimulated) ApplyPlan(tenant int, plan *core.Plan, routes *core.Routes) {
	m.cls[tenant].ApplyPlan(plan, routes)
}

func (m *multiSimulated) Start(ctrl core.Control) error {
	if m.started {
		return errors.New("engine: already started")
	}
	m.started = true
	m.ctrl = ctrl
	m.arrRngs = make([]*rand.Rand, len(m.cls))
	for i := range m.cls {
		m.arrRngs[i] = rand.New(rand.NewSource(m.cfg.Seed + 2 + 2*int64(i)))
	}
	return nil
}

func (m *multiSimulated) Submit(tenant int) error {
	if !m.started {
		return ErrNotStarted
	}
	if m.stopped {
		return ErrStopped
	}
	if ok, retry := m.admit(tenant); !ok {
		return &ingress.ShedError{RetryAfterSec: retry, Tier: m.cfg.Tenants[tenant].Tier}
	}
	m.cls[tenant].InjectRequest()
	return nil
}

// FeedAll schedules every tenant's arrivals plus the shared housekeeping
// ticks, then runs virtual time through the longest trace and drains
// in-flight requests. With a single tenant this is exactly the event program
// of the single-pipeline simulated backend.
func (m *multiSimulated) FeedAll(traces []*trace.Trace) error {
	if !m.started {
		return ErrNotStarted
	}
	if m.stopped {
		return ErrStopped
	}
	if len(traces) != len(m.cls) {
		return fmt.Errorf("engine: FeedAll got %d traces for %d tenants", len(traces), len(m.cls))
	}
	start := m.eng.Now()
	dur := 0.0
	any := false
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		any = true
		if d := tr.Duration(); d > dur {
			dur = d
		}
	}
	if !any {
		return errors.New("engine: FeedAll needs at least one trace")
	}
	end := start + dur

	// Fault events: anchored to the first feed's start. Recoveries landing
	// beyond the trace end still fire during the drain (RunAll).
	if len(m.timeline) > 0 && !m.faultsArmed {
		m.faultsArmed = true
		for _, tc := range m.timeline {
			tc := tc
			m.eng.At(start+tc.At, func() {
				desc := tc.Fire(m)
				if m.cfg.OnFault != nil {
					m.cfg.OnFault(m.eng.Now(), desc)
				}
			})
		}
	}

	// Arrivals: one lazy chain per tenant on the shared clock.
	for i, tr := range traces {
		if tr == nil {
			continue
		}
		cl := m.cls[i]
		chainArrivals(m.eng, start, tr.Arrivals(m.arrRngs[i]), func() {
			if ok, _ := m.admit(i); ok {
				cl.InjectRequest()
			}
		})
	}

	// Per-second housekeeping: every tenant's demand report, heartbeat, and
	// demand sample, then one joint reactive controller step.
	var secTick func()
	secTick = func() {
		now := m.eng.Now()
		for i := range m.cls {
			rate := 0.0
			if traces[i] != nil {
				rate = traces[i].RateAt(now - start)
			}
			m.housekeepTenant(i, now, rate)
		}
		if err := m.ctrl.Step(false); err != nil && m.stepErr == nil {
			m.stepErr = err
		}
		if now+1 <= end {
			m.eng.After(1, secTick)
		}
	}
	m.eng.After(1, secTick)

	var lbTick func()
	lbTick = func() {
		m.ctrl.Rebalance()
		if m.eng.Now()+m.cfg.LBIntervalSec <= end {
			m.eng.After(m.cfg.LBIntervalSec, lbTick)
		}
	}
	m.eng.After(m.cfg.LBIntervalSec, lbTick)

	var rmTick func()
	rmTick = func() {
		if err := m.ctrl.Step(true); err != nil && m.stepErr == nil {
			m.stepErr = err
		}
		if m.eng.Now()+m.cfg.RMIntervalSec <= end {
			m.eng.After(m.cfg.RMIntervalSec, rmTick)
		}
	}
	m.eng.After(m.cfg.RMIntervalSec, rmTick)

	m.eng.Run(end)
	m.eng.RunAll()
	return m.stepErr
}

func (m *multiSimulated) housekeepTenant(i int, now, rateQPS float64) {
	t := &m.cfg.Tenants[i]
	cl := m.cls[i]
	// Offered demand: shed requests never reached the cluster, but the
	// planner must still see them or it could never scale out of overload.
	count := float64(cl.FlushDemand()) + float64(m.shedFlush[i])
	m.shedFlush[i] = 0
	t.Meta.ObserveDemandAt(now, count)
	if t.OnTaskDemand != nil {
		for task, n := range cl.FlushTaskArrivals() {
			t.OnTaskDemand(pipeline.TaskID(task), float64(n))
		}
	}
	t.Collector.SampleDemand(now, rateQPS)
	cl.Heartbeat()
}

func (m *multiSimulated) Stop() error {
	if !m.started || m.stopped {
		m.stopped = true
		return m.stepErr
	}
	m.stopped = true
	m.eng.RunAll()
	return m.stepErr
}

func (m *multiSimulated) Stats(tenant int) Stats {
	injected, completed, dropped, rerouted, swaps := m.cls[tenant].Totals()
	return Stats{
		Injected:  injected,
		Completed: completed,
		Dropped:   dropped,
		Rerouted:  rerouted,
		Swaps:     swaps,
		Shed:      m.shed[tenant],
	}
}

func (m *multiSimulated) Now() float64 { return m.eng.Now() }

func (m *multiSimulated) ActiveServers(tenant int) int { return m.cls[tenant].ActiveServers() }

func (m *multiSimulated) ActiveByClass(tenant int) []int { return m.cls[tenant].ActiveByClass() }

// multiWallclock hosts one live.Engine per tenant. Real time is naturally
// shared, so tenant engines run their own goroutine workers and FeedAll
// plays the traces concurrently. Only tenant 0's housekeeping loop drives
// the joint controller (the others pass a nil control), so the
// MultiController is stepped exactly once per interval.
type multiWallclock struct {
	cfg MultiConfig
	es  []*live.Engine

	mu      sync.Mutex
	started bool

	// Fault injection: pool-level fault state, compiled timeline, the
	// controller observing capacity, and the injector goroutine lifecycle.
	fp        *faultPool
	timeline  []fault.Timed
	ctrl      core.Control
	faultDone chan struct{}
	faultWG   sync.WaitGroup
}

func newMultiWallclock(cfg MultiConfig) (MultiEngine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	m := &multiWallclock{cfg: cfg}
	for i, t := range cfg.Tenants {
		e, err := live.New(t.Meta, t.Policy, t.Collector, live.Options{
			Servers:       cfg.Servers,
			Classes:       cfg.Classes,
			SLOSec:        t.SLOSec,
			NetLatencySec: cfg.NetLatencySec,
			Seed:          cfg.Seed + 1 + 2*int64(i),
			TimeScale:     cfg.TimeScale,
			RMIntervalSec: cfg.RMIntervalSec,
			LBIntervalSec: cfg.LBIntervalSec,
			QueueFactor:   cfg.QueueFactor,
			OnTaskDemand:  t.OnTaskDemand,
			Admission:     t.Admission,
			Tier:          t.Tier,
			Telemetry:     t.Telemetry,
			Tracer:        t.Tracer,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: tenant %d: %w", i, err)
		}
		m.es = append(m.es, e)
	}
	if cfg.Faults != nil {
		m.fp = newFaultPool(cfg.Servers, cfg.Classes)
		tl, err := compileFaults(cfg.Faults, m.fp)
		if err != nil {
			return nil, err
		}
		m.timeline = tl
	}
	return m, nil
}

// Fail, Recover, Slow, and Restore implement fault.Target — see the
// simulated twin for the semantics. They are only called from the single
// fault-injector goroutine, so the pool state needs no extra locking; the
// per-engine mutations take each engine's own lock.
func (m *multiWallclock) Fail(class, n int) []int {
	phys := m.fp.pickFail(class, n)
	for _, e := range m.es {
		for _, p := range phys {
			e.SetWorkerDown(p)
		}
	}
	m.publishLive()
	return phys
}

func (m *multiWallclock) Recover(phys []int) {
	m.fp.recover(phys)
	for _, e := range m.es {
		for _, p := range phys {
			e.SetWorkerUp(p)
		}
	}
	m.publishLive()
}

func (m *multiWallclock) Slow(class, n int, factor float64) []int {
	phys := m.fp.pickSlow(class, n)
	for _, e := range m.es {
		for _, p := range phys {
			e.SetWorkerSpeedFactor(p, factor)
		}
	}
	return phys
}

func (m *multiWallclock) Restore(phys []int) {
	m.fp.restore(phys)
	for _, e := range m.es {
		for _, p := range phys {
			e.SetWorkerSpeedFactor(p, 1)
		}
	}
}

func (m *multiWallclock) publishLive() {
	live := m.fp.live()
	var forMeta []int
	if m.fp.anyDown() {
		forMeta = live
	}
	for i := range m.cfg.Tenants {
		m.cfg.Tenants[i].Meta.SetLiveClassCounts(forMeta)
	}
	if co, ok := m.ctrl.(core.CapacityObserver); ok {
		co.ObserveCapacity(live)
	}
}

// runFaults fires the compiled timeline on scaled wall time until Stop.
func (m *multiWallclock) runFaults() {
	defer m.faultWG.Done()
	ts := m.cfg.TimeScale
	if ts == 0 {
		ts = 1.0
	}
	begin := time.Now()
	for _, tc := range m.timeline {
		wait := time.Until(begin.Add(time.Duration(tc.At * ts * float64(time.Second))))
		if wait > 0 {
			select {
			case <-m.faultDone:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-m.faultDone:
				return
			default:
			}
		}
		desc := tc.Fire(m)
		if m.cfg.OnFault != nil {
			m.cfg.OnFault(m.es[0].Now(), desc)
		}
	}
}

func (m *multiWallclock) ApplyPlan(tenant int, plan *core.Plan, routes *core.Routes) {
	m.es[tenant].ApplyPlan(plan, routes)
}

func (m *multiWallclock) Start(ctrl core.Control) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("engine: already started")
	}
	for i, e := range m.es {
		var c core.Control
		if i == 0 {
			c = ctrl
		}
		if err := e.Start(c); err != nil {
			for j := 0; j < i; j++ {
				m.es[j].Stop()
			}
			return err
		}
	}
	m.started = true
	if len(m.timeline) > 0 {
		m.ctrl = ctrl
		m.faultDone = make(chan struct{})
		m.faultWG.Add(1)
		go m.runFaults()
	}
	return nil
}

func (m *multiWallclock) Submit(tenant int) error {
	return m.es[tenant].Submit()
}

func (m *multiWallclock) FeedAll(traces []*trace.Trace) error {
	if len(traces) != len(m.es) {
		return fmt.Errorf("engine: FeedAll got %d traces for %d tenants", len(traces), len(m.es))
	}
	any := false
	for _, tr := range traces {
		if tr != nil {
			any = true
		}
	}
	if !any {
		return errors.New("engine: FeedAll needs at least one trace")
	}
	var wg sync.WaitGroup
	errs := make([]error, len(traces))
	for i, tr := range traces {
		if tr == nil {
			continue
		}
		wg.Add(1)
		go func(i int, tr *trace.Trace) {
			defer wg.Done()
			errs[i] = m.es[i].Feed(tr)
		}(i, tr)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (m *multiWallclock) Stop() error {
	m.mu.Lock()
	if m.faultDone != nil {
		close(m.faultDone)
		m.faultDone = nil
	}
	m.mu.Unlock()
	m.faultWG.Wait()
	var errs []error
	for _, e := range m.es {
		errs = append(errs, e.Stop())
	}
	return errors.Join(errs...)
}

func (m *multiWallclock) Stats(tenant int) Stats {
	injected, completed, dropped, rerouted, shed := m.es[tenant].Totals()
	return Stats{
		Injected:  injected,
		Completed: completed,
		Dropped:   dropped,
		Rerouted:  rerouted,
		Shed:      shed,
	}
}

func (m *multiWallclock) Now() float64 { return m.es[0].Now() }

func (m *multiWallclock) ActiveServers(tenant int) int { return m.es[tenant].ActiveServers() }

func (m *multiWallclock) ActiveByClass(tenant int) []int { return m.es[tenant].ActiveByClass() }
