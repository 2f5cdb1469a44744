package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"loki/internal/cluster"
	"loki/internal/core"
	"loki/internal/fault"
	"loki/internal/ingress"
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
	// On the wall-clock kind it runs under the backend's lock, so it must
	// not call back into the backend.
	OnTaskDemand func(task pipeline.TaskID, count float64)

	// Admission, when non-nil, fronts every injection path of this tenant
	// (Submit and FeedAll alike): requests it refuses are shed — counted in
	// Stats.Shed and the collector's shed series, still part of the observed
	// demand the planner sees, but never queued. ApplyPlan retargets its rate
	// to the published routes' frontend rate (ingress.FrontendRate).
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
	// workers within it. With Classes set it must equal (or be left zero to
	// inherit) the classes' total count.
	Servers int
	// Classes partitions the shared pool into hardware classes, identically
	// for every tenant (see cluster.Options.Classes). Nil means one
	// homogeneous "default" class holding all Servers workers.
	Classes        []profiles.Class
	NetLatencySec  float64
	Seed           int64
	SwapLatencySec float64
	ExecJitter     float64
	QueueFactor    float64

	// TimeScale is the wall-clock backend's pace: one engine second takes
	// TimeScale wall seconds (zero means 1). Ignored by the simulator.
	TimeScale float64

	// Faults are injected into the shared pool. Both kinds schedule each
	// event and its recovery as engine events, anchored to the start of the
	// first FeedAll on the simulator and to Start on the wall-clock backend.
	// Start points the controller's Capacity at the pool's live counts, read
	// under the backend's lock, so every controller step reads them and a
	// fault re-plans within a round.
	Faults []fault.Event

	// OnFault, when non-nil, observes every fault and recovery event with
	// the backend's time and a human-readable description (the lokiserve
	// status line). On the wall-clock kind it runs under the backend's
	// lock, so it must not call back into the backend.
	OnFault func(timeSec float64, desc string)

	Tenants []TenantConfig
}

// defaults resolves the pool's hardware classes, once for every tenant's
// cluster and the fault pool, and checks the tenants.
func (c *MultiConfig) defaults() error {
	if len(c.Classes) == 0 {
		c.Classes = profiles.DefaultClasses(c.Servers)
	}
	if total := profiles.TotalCount(c.Classes); c.Servers == 0 {
		c.Servers = total
	} else if c.Servers != total {
		return fmt.Errorf("engine: Servers (%d) disagrees with the hardware classes' total count (%d)", c.Servers, total)
	}
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
	return nil
}

// The Resource Manager re-plans on every rmIntervalSec-th housekeeping tick
// (the paper's 10 s); the Load Balancer refreshes its routes on every tick.
const rmIntervalSec = 10

// MultiEngine is a serving backend hosting one or more pipelines on one
// shared pool and clock. Tenants are addressed by their index in
// MultiConfig.Tenants. The lifecycle is Start → {Submit | FeedAll}* → Stop;
// Stop drains in-flight requests and is idempotent. ApplyPlan may be called
// at any point after construction (the controller publishes through it,
// including for the pre-warm plan installed before Start).
type MultiEngine interface {
	// ApplyPlan installs one tenant's plan and routing tables, and retargets
	// its admission controller if it has one (the joint controller's
	// per-tenant publish target).
	ApplyPlan(tenant int, plan *core.Plan, routes *core.Routes)

	// Start begins serving; the given controller is stepped jointly by the
	// housekeeping tick until Stop, and reads the pool's live counts at
	// every step. A nil controller serves the standing plans without
	// stepping.
	Start(ctrl *core.MultiController) error

	// Submit admits a single request for one tenant at the backend's
	// current time. On the simulated backend the request is processed when
	// virtual time next advances (a FeedAll or Stop call).
	Submit(tenant int) error

	// FeedAll plays one trace per tenant (indexed like MultiConfig.Tenants;
	// nil entries idle) as concurrent Poisson arrival processes on the
	// shared clock, blocking until the clock reaches the end of the longest
	// trace, so its last arrival has been admitted.
	FeedAll(traces []*trace.Trace) error

	// Stop refuses new work, drains in-flight requests of every tenant and
	// shuts the backend down.
	Stop() error

	// Observe reads one tenant and the pool at one instant, in one hold of
	// the backend's lock.
	Observe(tenant int) Observation
}

// NewMulti builds the backend of the given kind — the one constructor
// behind loki.System, loki.MultiSystem and every experiment. Both kinds are
// the same backend, one cluster.Cluster per tenant on one sim.Engine; the
// wall-clock kind adds a pacer that fires the engine's events as the scaled
// wall clock reaches them (see wall).
func NewMulti(k Kind, cfg MultiConfig) (MultiEngine, error) {
	if k != KindSimulated && k != KindWallclock {
		return nil, fmt.Errorf("engine: unknown kind %d", k)
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	eng := &sim.Engine{}
	m := &multi{cfg: cfg, eng: eng}
	for i, t := range cfg.Tenants {
		cl, err := cluster.New(eng, t.Meta, t.Policy, t.Collector, cluster.Options{
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
	m.feeds = make([]feed, len(cfg.Tenants))
	m.fp = newFaultPool(cfg.Classes)
	for _, e := range cfg.Faults {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		if _, ok := m.fp.classIndex(e.Class); !ok {
			return nil, fmt.Errorf("fault: unknown class %q in %q", e.Class, e.String())
		}
	}
	if k == KindWallclock {
		m.wall = newWall(cfg.TimeScale)
	}
	return m, nil
}

// multi hosts one cluster.Cluster per tenant on a single discrete-event
// clock. Seeds are offset per tenant (tenant i: cluster Seed+1+2i, arrivals
// Seed+2+2i), so tenant 0 keeps the seeds a one-pipeline run has always
// drawn.
//
// On the simulator (wall nil) virtual time advances only inside FeedAll and
// Stop, so the backend must be driven from one goroutine and takes no lock.
// On the wall-clock kind every method holds wall.mu and first runs the engine
// up to the scaled wall clock; between them the pacer fires events on time.
type multi struct {
	cfg  MultiConfig
	eng  *sim.Engine
	cls  []*cluster.Cluster
	ctrl *core.MultiController

	arrRngs []*rand.Rand
	started bool
	stopped bool
	stepErr error

	shed      []int64 // cumulative per-tenant shed counts
	shedFlush []int64 // shed since the last housekeeping flush (offered demand)
	feeds     []feed  // per tenant: the trace its demand samples read

	// Fault injection: the pool-level fault state (the only record of which
	// servers are up), and whether cfg.Faults has been scheduled.
	fp          *faultPool
	faultsArmed bool

	wall *wall // nil on the simulator
}

// feed is the trace a tenant was last fed and the engine time it started.
type feed struct {
	tr    *trace.Trace
	start float64
}

// wall paces the wall-clock kind: engine time t falls due TimeScale·t wall
// seconds after Start. Two goroutines run from Start until Stop's drain ends.
// The pacer fires due events under mu, then sleeps until the next one or a
// wake. The step goroutine makes the controller calls that ticks and faults
// hand it: a controller step publishes through ApplyPlan, which takes mu, so
// it never runs under mu, and serving goes on during a solve.
type wall struct {
	mu      sync.Mutex
	scale   float64
	t0      time.Time
	running bool    // holders of mu catch the engine up to the wall clock
	sleepAt float64 // the engine time the pacer sleeps until

	wake    chan struct{}     // the pacer should look at the queue again
	calls   chan func() error // controller calls for the step goroutine; see newWall
	quit    chan struct{}     // closed when Stop begins
	paced   chan struct{}     // closed when the pacer has drained and exited
	stepped chan struct{}     // closed when the step goroutine has exited
}

func newWall(scale float64) *wall {
	if scale <= 0 {
		scale = 1
	}
	return &wall{
		scale:   scale,
		sleepAt: math.Inf(1),
		wake:    make(chan struct{}, 1),
		// Ticks queue about two calls per engine second, so 64 lets a
		// solve run some thirty seconds long before the ticks it spans
		// are skipped rather than queued.
		calls:   make(chan func() error, 64),
		quit:    make(chan struct{}),
		paced:   make(chan struct{}),
		stepped: make(chan struct{}),
	}
}

// now is the engine time the wall clock has reached.
func (w *wall) now() float64 { return time.Since(w.t0).Seconds() / w.scale }

func (w *wall) kick() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// lock takes the wall-clock kind's lock and runs the engine up to the wall
// clock, so the caller acts at the current instant. A no-op on the simulator.
func (m *multi) lock() {
	if w := m.wall; w != nil {
		w.mu.Lock()
		if w.running {
			m.eng.Run(w.now())
		}
	}
}

// unlock wakes the pacer if the caller queued an event before the one it
// sleeps until, and releases the lock.
func (m *multi) unlock() {
	if w := m.wall; w != nil {
		if at, ok := m.eng.NextAt(); ok && at < w.sleepAt {
			w.kick()
		}
		w.mu.Unlock()
	}
}

// pace fires the engine's events as the wall clock reaches them, until Stop
// has begun and no tenant has a request in flight.
func (m *multi) pace() {
	w := m.wall
	defer close(w.paced)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		w.mu.Lock()
		m.eng.Run(w.now())
		if m.stopped && m.drained() {
			w.running = false
			w.mu.Unlock()
			return
		}
		// The tick reschedules itself without end, so an event is
		// always pending.
		w.sleepAt, _ = m.eng.NextAt()
		w.mu.Unlock()
		timer.Reset(time.Until(w.t0.Add(time.Duration(w.sleepAt * w.scale * float64(time.Second)))))
		select {
		case <-timer.C:
		case <-w.wake:
		}
	}
}

// runCalls makes the controller calls control hands over, until the pacer
// exits.
func (m *multi) runCalls() {
	w := m.wall
	defer close(w.stepped)
	for {
		select {
		case call := <-w.calls:
			err := call()
			w.mu.Lock()
			m.keepErr(err)
			w.mu.Unlock()
		case <-w.paced:
			return
		}
	}
}

func (m *multi) drained() bool {
	for _, cl := range m.cls {
		if cl.Inflight() > 0 {
			return false
		}
	}
	return true
}

// control makes one controller call: inline on the simulator, through the
// step goroutine on the wall-clock kind. A controller so far behind that the
// queue is full skips the call; the next tick asks again.
func (m *multi) control(call func() error) {
	if m.ctrl == nil {
		return
	}
	if m.wall == nil {
		m.keepErr(call())
		return
	}
	select {
	case m.wall.calls <- call:
	default:
	}
}

// keepErr records the first controller error, which FeedAll (simulator) and
// Stop return.
func (m *multi) keepErr(err error) {
	if err != nil && m.stepErr == nil {
		m.stepErr = err
	}
}

// fail, recover, slow, and restore act on the shared pool: victims are
// chosen once at the pool level and applied to every tenant's cluster (each
// models the same physical machines). The controller reads the new live
// counts (liveByClass) on its next step. They run as fault events, under the
// wall-clock kind's lock. fail and slow take up to n servers of the class
// (fail: n <= 0 is the whole class) and return their physical ids, which the
// matching recover or restore hands back.
func (m *multi) fail(class, n int) []int {
	phys := m.fp.pickFail(class, n)
	for _, cl := range m.cls {
		for _, p := range phys {
			cl.SetWorkerDown(p)
		}
	}
	return phys
}

func (m *multi) recover(phys []int) {
	m.fp.recover(phys)
	for _, cl := range m.cls {
		for _, p := range phys {
			cl.SetWorkerUp(p)
		}
	}
}

func (m *multi) slow(class, n int, factor float64) []int {
	phys := m.fp.pickSlow(class, n)
	for _, cl := range m.cls {
		for _, p := range phys {
			cl.SetWorkerSpeedFactor(p, factor)
		}
	}
	return phys
}

func (m *multi) restore(phys []int) {
	m.fp.restore(phys)
	for _, cl := range m.cls {
		for _, p := range phys {
			cl.SetWorkerSpeedFactor(p, 1)
		}
	}
}

// armFaults schedules every fault event and its recovery from start, once.
// The actions go on the timeline sorted by offset, ties in event order with
// a fault before its recovery, because the simulator fires equal times in
// the order they were scheduled. A recovery restores exactly the servers its
// fault hit. Each action reports its description to OnFault.
func (m *multi) armFaults(start float64) {
	if m.faultsArmed {
		return
	}
	m.faultsArmed = true
	type action struct {
		at   float64 // seconds after start
		fire func() string
	}
	var acts []action
	for _, e := range m.cfg.Faults {
		ci, _ := m.fp.classIndex(e.Class)
		label := e.Class
		if label == "" {
			label = "class0"
		}
		at, back := e.At.Seconds(), e.At.Seconds()+e.RecoverAfter.Seconds()
		var hit []int
		switch e.Kind {
		case fault.Crash, fault.Outage:
			n := e.N
			if e.Kind == fault.Outage {
				n = 0 // whole class
			}
			acts = append(acts, action{at, func() string {
				hit = m.fail(ci, n)
				return fmt.Sprintf("%s %s: %d server(s) down %v", e.Kind, label, len(hit), hit)
			}})
			if e.RecoverAfter > 0 {
				acts = append(acts, action{back, func() string {
					m.recover(hit)
					return fmt.Sprintf("recover %s: %d server(s) back %v", label, len(hit), hit)
				}})
			}
		case fault.Straggler:
			acts = append(acts, action{at, func() string {
				hit = m.slow(ci, e.N, e.Factor)
				return fmt.Sprintf("straggle %s: %d server(s) at %gx %v", label, len(hit), e.Factor, hit)
			}})
			if e.RecoverAfter > 0 {
				acts = append(acts, action{back, func() string {
					m.restore(hit)
					return fmt.Sprintf("restore %s: %d server(s) full speed %v", label, len(hit), hit)
				}})
			}
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	for _, a := range acts {
		m.eng.At(start+a.at, func() {
			desc := a.fire()
			if m.cfg.OnFault != nil {
				m.cfg.OnFault(m.eng.Now(), desc)
			}
		})
	}
}

// admit consults tenant i's admission controller at the current engine
// instant. A refused request is shed: counted, reported to the collector, and
// folded into the next demand observation (housekeepTenant), but never
// injected. Tenants without a controller always admit.
func (m *multi) admit(i int) (ok bool, retryAfterSec float64) {
	t := &m.cfg.Tenants[i]
	if t.Admission == nil {
		return true, 0
	}
	now := m.eng.Now()
	ok, retry := t.Admission.Admit(now, int64(m.cls[i].Inflight()))
	if ok {
		t.Collector.Admitted(now)
		return true, 0
	}
	m.shed[i]++
	m.shedFlush[i]++
	t.Collector.Shed(now)
	return false, retry
}

// ApplyPlan installs the plan and, for an admission-fronted tenant, retargets
// its front door at the same instant: the granted capacity is the summed
// service rate of the root-task replicas just routed. Publications repeat
// every rebalance, so a steady rate leaves the bucket as it is.
func (m *multi) ApplyPlan(tenant int, plan *core.Plan, routes *core.Routes) {
	m.lock()
	m.cls[tenant].ApplyPlan(plan, routes)
	if adm := m.cfg.Tenants[tenant].Admission; adm != nil {
		adm.SetRate(m.eng.Now(), ingress.FrontendRate(routes))
	}
	m.unlock()
}

// Start begins serving. On the wall-clock kind the fault timeline and the
// housekeeping ticks start here and run until Stop, and so do the pacer and
// the step goroutine.
func (m *multi) Start(ctrl *core.MultiController) error {
	m.lock()
	defer m.unlock()
	if m.started {
		return errors.New("engine: already started")
	}
	m.started = true
	m.ctrl = ctrl
	if ctrl != nil {
		ctrl.Capacity = m.liveByClass
	}
	m.arrRngs = make([]*rand.Rand, len(m.cls))
	for i := range m.cls {
		m.arrRngs[i] = rand.New(rand.NewSource(m.cfg.Seed + 2 + 2*int64(i)))
	}
	if w := m.wall; w != nil {
		m.armFaults(m.eng.Now())
		m.startTicks(math.Inf(1))
		w.t0 = time.Now()
		w.running = true
		go m.pace()
		go m.runCalls()
	}
	return nil
}

func (m *multi) Submit(tenant int) error {
	m.lock()
	defer m.unlock()
	if !m.started {
		return errNotStarted
	}
	if m.stopped {
		return errStopped
	}
	if ok, retry := m.admit(tenant); !ok {
		return &ingress.ShedError{RetryAfterSec: retry, Tier: m.cfg.Tenants[tenant].Tier}
	}
	m.cls[tenant].InjectRequest()
	return nil
}

// FeedAll schedules every tenant's arrivals from the current time. The
// simulator then schedules the housekeeping ticks, runs virtual time through
// the longest trace and drains in-flight requests; the wall-clock kind, whose
// ticks run from Start, waits until the engine reaches the trace end.
func (m *multi) FeedAll(traces []*trace.Trace) error {
	m.lock()
	end, err := m.feed(traces)
	var done chan struct{}
	if err == nil && m.wall != nil {
		done = make(chan struct{})
		m.eng.At(end, func() { close(done) })
	}
	m.unlock()
	if err != nil {
		return err
	}
	if w := m.wall; w != nil {
		select {
		case <-done:
		case <-w.quit:
		}
		return nil
	}
	m.startTicks(end)
	m.eng.Run(end)
	m.eng.RunAll()
	return m.stepErr
}

// feed checks traces and schedules them from the current time: the fault
// timeline on the simulator's first feed, then one arrival chain per tenant.
// It returns the end of the longest trace.
func (m *multi) feed(traces []*trace.Trace) (end float64, err error) {
	if !m.started {
		return 0, errNotStarted
	}
	if m.stopped {
		return 0, errStopped
	}
	if len(traces) != len(m.cls) {
		return 0, fmt.Errorf("engine: FeedAll got %d traces for %d tenants", len(traces), len(m.cls))
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
		return 0, errors.New("engine: FeedAll needs at least one trace")
	}

	// Fault events: anchored to the first feed's start. Recoveries landing
	// beyond the trace end still fire during the drain (RunAll).
	if m.wall == nil {
		m.armFaults(start)
	}

	// Arrivals: one lazy chain per tenant on the shared clock; a Stop under
	// way refuses the rest. Feeds may overlap on the wall-clock kind, so
	// there a feed leaves the demand samples of tenants it does not feed
	// alone.
	for i, tr := range traces {
		if tr != nil || m.wall == nil {
			m.feeds[i] = feed{tr: tr, start: start}
		}
		if tr == nil {
			continue
		}
		cl := m.cls[i]
		chainArrivals(m.eng, start, tr.Arrivals(m.arrRngs[i]), func() {
			if m.stopped {
				return
			}
			if ok, _ := m.admit(i); ok {
				cl.InjectRequest()
			}
		})
	}
	return start + dur, nil
}

// chainArrivals plays arrivals (offsets from start) on eng as a lazy chain:
// each arrival event calls inject and then schedules the next arrival, so
// one event per trace is pending at a time and the event heap stays small.
// One callback serves the whole chain.
func chainArrivals(eng *sim.Engine, start float64, arrivals []float64, inject func()) {
	next := 0
	var fire func()
	scheduleNext := func() {
		if next < len(arrivals) {
			eng.At(start+arrivals[next], fire)
			next++
		}
	}
	fire = func() {
		inject()
		scheduleNext()
	}
	scheduleNext()
}

// startTicks schedules the shared housekeeping as one engine event a second,
// none past end. Every rmIntervalSec-th tick first makes the Resource
// Manager's periodic step; every tick then takes each tenant's demand report,
// heartbeat and demand sample, makes one joint reactive step and refreshes the
// Load Balancer's routes.
func (m *multi) startTicks(end float64) {
	periodic := func() error { return m.ctrl.Step(true) }
	reactive := func() error { return m.ctrl.Step(false) }
	rebalance := func() error { m.ctrl.Rebalance(); return nil }
	n := 0
	var tick func()
	tick = func() {
		if n++; n%rmIntervalSec == 0 {
			m.control(periodic)
		}
		now := m.eng.Now()
		for i := range m.cls {
			rate := 0.0
			if f := m.feeds[i]; f.tr != nil {
				rate = f.tr.RateAt(now - f.start)
			}
			m.housekeepTenant(i, now, rate)
		}
		m.control(reactive)
		m.control(rebalance)
		if now+1 <= end {
			m.eng.After(1, tick)
		}
	}
	m.eng.After(1, tick)
}

func (m *multi) housekeepTenant(i int, now, rateQPS float64) {
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

// Stop refuses new work and drains in-flight requests: the simulator runs
// every pending event; the wall-clock kind keeps pacing until no tenant has a
// request in flight, then stops both its goroutines.
func (m *multi) Stop() error {
	m.lock()
	if !m.started || m.stopped {
		m.stopped = true
		err := m.stepErr
		m.unlock()
		return err
	}
	m.stopped = true
	w := m.wall
	if w == nil {
		m.eng.RunAll()
		return m.stepErr
	}
	close(w.quit)
	w.kick()
	m.unlock()
	<-w.paced
	<-w.stepped // nothing writes stepErr once the step goroutine is done
	return m.stepErr
}

func (m *multi) Observe(tenant int) Observation {
	m.lock()
	defer m.unlock()
	cl := m.cls[tenant]
	injected, completed, dropped, rerouted, swaps := cl.Totals()
	return Observation{
		TimeSec: m.eng.Now(),
		Stats: Stats{
			Injected:  injected,
			Completed: completed,
			Dropped:   dropped,
			Rerouted:  rerouted,
			Swaps:     swaps,
			Shed:      m.shed[tenant],
		},
		Active:        cl.ActiveServers(),
		ActiveByClass: cl.ActiveByClass(),
		LiveByClass:   m.fp.live(),
		Workers:       m.cfg.Tenants[tenant].Telemetry.Rows(),
	}
}

// liveByClass counts the pool's servers currently up (not crashed) in each
// hardware class, in class order: the controller's read of pool health.
func (m *multi) liveByClass() []int {
	m.lock()
	defer m.unlock()
	return m.fp.live()
}
