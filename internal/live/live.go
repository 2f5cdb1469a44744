// Package live is the wall-clock serving engine: the same pipelines,
// controller, routing tables, and drop policies as internal/cluster, but
// with real goroutine workers whose "inference" occupies them for the
// profiled batch duration in real time. It plays the role of the paper's
// Python/ONNX prototype in the §6.2 "validating the simulator" experiment:
// the same workload is served by this engine and by the discrete-event
// simulator, and the metric deltas between the two quantify how faithful
// the simulator is.
package live

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"loki/internal/core"
	"loki/internal/ingress"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/telemetry"
	"loki/internal/trace"
)

// Options configures the live engine.
type Options struct {
	Servers int
	// Classes partitions the workers into hardware classes exactly as in
	// cluster.Options: contiguous physical ranges, per-class execution
	// speed, swaps confined to a class. Nil means one "default" class at
	// speed 1.0.
	Classes       []profiles.Class
	SLOSec        float64
	NetLatencySec float64
	Seed          int64
	// TimeScale stretches simulated model latencies into wall time:
	// wall = profiled × TimeScale. 1.0 runs in real time; smaller values
	// compress long experiments (the SLO is compared in scaled time, so
	// results are invariant up to scheduler jitter).
	TimeScale float64
	// RMIntervalSec and LBIntervalSec are controller periods in scaled
	// seconds.
	RMIntervalSec float64
	LBIntervalSec float64
	QueueFactor   float64

	// OnTaskDemand, when non-nil, receives per-task arrival counts every
	// housekeeping second (the Proteus-like baseline's per-task history).
	OnTaskDemand func(task pipeline.TaskID, count float64)

	// Admission, when non-nil, is consulted on every injection path (Submit
	// and Feed alike) before a request enters the system; refused requests
	// are shed — counted, reported to the collector, never queued.
	Admission *ingress.Admission

	// Tier is the pipeline's service tier, echoed on every shed decision
	// (ingress.ShedError.Tier) so 429 responses carry which class of
	// traffic was refused.
	Tier int

	// Telemetry, when non-nil, receives per-worker enqueue/batch/fault
	// events (internally synchronized; safe under or outside e.mu). Nil
	// disables collection.
	Telemetry *telemetry.Collector
	// Tracer, when non-nil, samples root requests into span trees with its
	// own RNG. Wall-clock traces are real measurements, not reproducible.
	Tracer *telemetry.Tracer
}

// Engine is the live serving system.
type Engine struct {
	meta *core.MetadataStore
	pol  policy.Policy
	col  *metrics.Collector
	opts Options
	g    *pipeline.Graph

	mu           sync.Mutex
	rng          *rand.Rand
	routes       *core.Routes
	logical      map[core.WorkerID]*worker
	workers      []*worker
	rec          *core.Reconciler // which spec sits on which physical worker
	names        [][]string       // [task][variant] → "task/variant", the telemetry row's label
	backupLeft   map[core.WorkerID]float64
	minTail      []float64
	arrivals     int
	taskArrivals []int
	inflight     sync.WaitGroup
	start        time.Time
	started      bool
	stopped      bool

	// Lifecycle state between Start and Stop.
	ctrl      *core.MultiController
	arrRng    *rand.Rand
	done      chan struct{}
	workersWG sync.WaitGroup
	hkWG      sync.WaitGroup
	injectors sync.WaitGroup // in-progress Feed/Submit calls
	curTrace  *trace.Trace
	traceBase float64
	stepErr   error

	TotalInjected  int64
	TotalCompleted int64
	TotalDropped   int64
	TotalRerouted  int64
	TotalShed      int64
	inFlightN      int64 // admitted roots not yet finished (the saturation signal)
	nextRootID     int64 // trace identity for sampled requests
}

type worker struct {
	phys      int
	class     int        // hardware class index
	speed     float64    // current execution speed (baseSpeed × straggler factor)
	baseSpeed float64    // the class's nominal execution speed
	cond      *sync.Cond // waits on the engine mutex
	spec      *core.WorkerSpec
	queue     []*subreq
	qcap      int
	hbIn      int
	hbOut     int

	// Fault state (guarded by e.mu): whether the worker is down is the
	// Reconciler's to know (it skips down workers when placing); gen
	// increments on every crash so the worker goroutine can tell that the
	// batch it just executed died with the old incarnation.
	gen int
}

type rootReq struct {
	arrived     float64 // scaled seconds since engine start
	deadline    float64
	mu          sync.Mutex
	outstanding int
	dropped     bool
	accSum      float64
	accN        int
	tr          *telemetry.ReqTrace // nil unless sampled; set once at injection
}

type subreq struct {
	root     *rootReq
	task     pipeline.TaskID
	acc      float64
	enqueued float64
}

// New builds a live engine.
func New(meta *core.MetadataStore, pol policy.Policy, col *metrics.Collector, opts Options) (*Engine, error) {
	if opts.Classes == nil {
		opts.Classes = profiles.DefaultClasses(opts.Servers)
	}
	if total := profiles.TotalCount(opts.Classes); opts.Servers == 0 {
		opts.Servers = total
	} else if opts.Servers != total {
		return nil, fmt.Errorf("live: Servers (%d) disagrees with the hardware classes' total count (%d)", opts.Servers, total)
	}
	if opts.Servers <= 0 {
		return nil, fmt.Errorf("live: need a positive server count")
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 1.0
	}
	if opts.QueueFactor == 0 {
		opts.QueueFactor = 2.0
	}
	if opts.RMIntervalSec == 0 {
		opts.RMIntervalSec = 10
	}
	if opts.LBIntervalSec == 0 {
		opts.LBIntervalSec = 1
	}
	e := &Engine{
		meta:       meta,
		pol:        pol,
		col:        col,
		opts:       opts,
		g:          meta.Graph(),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		rec:        core.NewReconciler(opts.Classes),
		names:      core.AssignedNames(meta.Graph()),
		logical:    map[core.WorkerID]*worker{},
		backupLeft: map[core.WorkerID]float64{},
	}
	for cl, class := range opts.Classes {
		speed := class.Speed
		if speed == 0 {
			speed = 1.0
		}
		for i := 0; i < class.Count; i++ {
			w := &worker{phys: len(e.workers), class: cl, speed: speed, baseSpeed: speed}
			w.cond = sync.NewCond(&e.mu)
			e.workers = append(e.workers, w)
		}
	}
	e.taskArrivals = make([]int, len(meta.Graph().Tasks))
	classProf := meta.ClassProfiles()
	e.minTail = make([]float64, len(e.g.Tasks))
	var tail func(t pipeline.TaskID) float64
	tail = func(t pipeline.TaskID) float64 {
		minExec := math.Inf(1)
		for _, prof := range classProf {
			for k := range prof[t] {
				for _, l := range prof[t][k].LatencySec {
					if l < minExec {
						minExec = l
					}
				}
			}
		}
		worst := 0.0
		for _, ch := range e.g.Tasks[t].Children {
			if v := tail(ch.Task); v > worst {
				worst = v
			}
		}
		e.minTail[t] = opts.NetLatencySec + minExec + worst
		return e.minTail[t]
	}
	tail(0)
	return e, nil
}

// now returns the scaled time since the run started.
func (e *Engine) now() float64 {
	return time.Since(e.start).Seconds() / e.opts.TimeScale
}

// sleepScaled sleeps for d scaled seconds.
func (e *Engine) sleepScaled(d float64) {
	if d <= 0 {
		return
	}
	time.Sleep(time.Duration(d * e.opts.TimeScale * float64(time.Second)))
}

// ApplyPlan installs a plan and routing tables (Controller publish target).
// Placement is core.Reconciler's, shared with the simulator; this engine's
// effects on each worker that held or receives a spec are to abandon its queue
// when its task changes or it shuts down, and to wake its goroutine.
func (e *Engine) ApplyPlan(plan *core.Plan, routes *core.Routes) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	e.routes = routes

	clear(e.logical)
	for _, wi := range e.rec.Reconcile(routes.Specs) {
		w, ns := e.workers[wi], e.rec.Held(wi)
		if w.spec != nil && (ns == nil || w.spec.Task != ns.Task) {
			for _, sub := range w.queue {
				e.abandonLocked(sub)
			}
			w.queue = nil
			e.opts.Telemetry.QueueCleared(now, w.phys)
		}
		if ns == nil {
			w.spec = nil
			e.opts.Telemetry.SetAssigned(now, w.phys, "")
			continue
		}
		if w.spec != nil && (w.spec.Task != ns.Task || w.spec.Variant != ns.Variant) {
			e.opts.Telemetry.Swap(now, w.phys)
		}
		e.logical[ns.ID] = w
		w.spec = ns
		w.qcap = ns.QueueCap(e.opts.QueueFactor, e.opts.SLOSec)
		w.cond.Signal()
		e.opts.Telemetry.SetAssigned(now, w.phys, e.names[ns.Task][ns.Variant])
	}
	clear(e.backupLeft)
	for _, entries := range routes.Backup {
		for _, b := range entries {
			e.backupLeft[b.Worker] = b.Leftover
		}
	}
}

// Hosted returns the spec physical worker phys hosts, nil when idle or down.
func (e *Engine) Hosted(phys int) *core.WorkerSpec {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workers[phys].spec
}

// ActiveServers counts workers hosting a model.
func (e *Engine) ActiveServers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rec.Placed()
}

// ActiveByClass counts workers hosting a model in each hardware class, in
// class order.
func (e *Engine) ActiveByClass() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, len(e.opts.Classes))
	for _, w := range e.workers {
		if w.spec != nil {
			out[w.class]++
		}
	}
	return out
}

// SetWorkerDown crashes physical worker phys: queued requests are lost, the
// batch executing right now (if any) is discarded when its worker goroutine
// wakes, the worker leaves the logical route table, and it stops counting
// toward class capacity until SetWorkerUp. Idempotent and safe from any
// goroutine.
func (e *Engine) SetWorkerDown(phys int) {
	e.mu.Lock()
	w := e.workers[phys]
	if !e.rec.SetDown(phys, true) {
		e.mu.Unlock()
		return
	}
	w.gen++ // the executing batch, if any, dies with the old incarnation
	if w.spec != nil {
		if e.logical[w.spec.ID] == w {
			delete(e.logical, w.spec.ID)
		}
		w.spec = nil
	}
	queue := w.queue
	w.queue = nil
	for _, sub := range queue {
		e.abandonLocked(sub)
	}
	e.mu.Unlock()
	e.opts.Telemetry.SetDown(e.now(), phys, true)
}

// SetWorkerUp brings a crashed worker back as an idle server; the next
// ApplyPlan may claim it again. Idempotent.
func (e *Engine) SetWorkerUp(phys int) {
	e.mu.Lock()
	e.rec.SetDown(phys, false)
	e.mu.Unlock()
	e.opts.Telemetry.SetDown(e.now(), phys, false)
}

// SetWorkerSpeedFactor scales a worker's execution speed relative to its
// class's nominal speed (a straggler at factor 0.25 runs four times slower);
// factor 1 restores full speed. A batch already executing keeps the latency
// it started with.
func (e *Engine) SetWorkerSpeedFactor(phys int, factor float64) {
	e.mu.Lock()
	w := e.workers[phys]
	w.speed = w.baseSpeed * factor
	e.mu.Unlock()
	e.opts.Telemetry.SetSpeed(e.now(), phys, factor)
}

// Start launches the worker goroutines and the housekeeping loop
// (per-second demand reports, heartbeats, reactive and periodic controller
// steps). The engine then accepts Submit and Feed until Stop.
//
// ctrl is the controller whose tenants this engine serves. A nil ctrl runs
// demand reports and heartbeats but no controller stepping; a multi-tenant
// harness passes nil for all but one member engine so the joint controller
// is stepped exactly once per interval.
func (e *Engine) Start(ctrl *core.MultiController) error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return fmt.Errorf("live: engine already started")
	}
	e.started = true
	e.stopped = false
	e.ctrl = ctrl
	e.arrRng = rand.New(rand.NewSource(e.opts.Seed + 2))
	e.stepErr = nil
	e.curTrace = nil
	e.start = time.Now()
	e.done = make(chan struct{})
	e.mu.Unlock()

	for _, w := range e.workers {
		e.workersWG.Add(1)
		go func(w *worker) {
			defer e.workersWG.Done()
			e.workerLoop(w)
		}(w)
	}
	e.hkWG.Add(1)
	go e.housekeeping()
	return nil
}

// housekeeping ticks once per scaled second until Stop.
func (e *Engine) housekeeping() {
	defer e.hkWG.Done()
	tick := time.NewTicker(time.Duration(e.opts.TimeScale * float64(time.Second)))
	defer tick.Stop()
	lastRM := 0.0
	lastLB := 0.0
	for {
		select {
		case <-e.done:
			return
		case <-tick.C:
		}
		now := e.now()
		e.mu.Lock()
		count := e.arrivals
		e.arrivals = 0
		var taskCounts []int
		if e.opts.OnTaskDemand != nil {
			taskCounts = append([]int(nil), e.taskArrivals...)
			for i := range e.taskArrivals {
				e.taskArrivals[i] = 0
			}
		}
		for _, w := range e.workers {
			if w.spec == nil || w.hbIn == 0 {
				continue
			}
			sumRatio := 0.0
			for _, ch := range e.g.Tasks[w.spec.Task].Children {
				sumRatio += ch.BranchRatio
			}
			if sumRatio > 0 {
				e.meta.ReportMultFactor(w.spec.Task, w.spec.Variant,
					float64(w.hbOut)/(float64(w.hbIn)*sumRatio))
			}
			w.hbIn, w.hbOut = 0, 0
		}
		active := 0
		activeByClass := make([]int, len(e.opts.Classes))
		for _, w := range e.workers {
			if w.spec != nil {
				active++
				activeByClass[w.class]++
			}
		}
		tr := e.curTrace
		base := e.traceBase
		ctrl := e.ctrl
		e.mu.Unlock()

		e.meta.ObserveDemandAt(now, float64(count))
		for task, n := range taskCounts {
			e.opts.OnTaskDemand(pipeline.TaskID(task), float64(n))
		}
		e.colLocked(func(c *metrics.Collector) {
			if tr != nil {
				c.SampleDemand(now, tr.RateAt(now-base))
			}
			c.SampleServers(now, active)
			c.SampleClassServers(activeByClass)
		})
		e.opts.Telemetry.Sample(now)
		if ctrl == nil {
			continue
		}
		if err := ctrl.Step(false); err != nil {
			e.recordErr(err)
		}
		if now-lastLB >= e.opts.LBIntervalSec {
			ctrl.Rebalance()
			lastLB = now
		}
		if now-lastRM >= e.opts.RMIntervalSec {
			if err := ctrl.Step(true); err != nil {
				e.recordErr(err)
			}
			lastRM = now
		}
	}
}

func (e *Engine) recordErr(err error) {
	e.mu.Lock()
	if e.stepErr == nil {
		e.stepErr = err
	}
	e.mu.Unlock()
}

// Submit admits one request at the current wall-clock instant. With an
// admission controller armed, a refused request returns *ingress.ShedError
// (carrying the Retry-After hint) and never enters the system.
func (e *Engine) Submit() error {
	e.mu.Lock()
	if !e.started || e.stopped {
		e.mu.Unlock()
		return fmt.Errorf("live: engine not running")
	}
	e.injectors.Add(1)
	e.mu.Unlock()
	defer e.injectors.Done()
	if ok, retry := e.inject(); !ok {
		return &ingress.ShedError{RetryAfterSec: retry, Tier: e.opts.Tier}
	}
	return nil
}

// Feed plays the trace's open-loop Poisson arrival process in (scaled) wall
// time, blocking until the last arrival has been injected.
func (e *Engine) Feed(tr *trace.Trace) error {
	e.mu.Lock()
	if !e.started || e.stopped {
		e.mu.Unlock()
		return fmt.Errorf("live: engine not running")
	}
	base := time.Since(e.start).Seconds() / e.opts.TimeScale
	e.curTrace = tr
	e.traceBase = base
	arrRng := e.arrRng
	e.injectors.Add(1)
	e.mu.Unlock()
	defer e.injectors.Done()

	for _, at := range tr.Arrivals(arrRng) {
		// A concurrent Stop aborts the remaining arrivals at the next
		// inter-arrival boundary.
		e.mu.Lock()
		running := e.started
		e.mu.Unlock()
		if !running {
			break
		}
		e.sleepScaled(base + at - e.now())
		e.inject()
	}
	return nil
}

// Stop waits for in-flight requests to drain, then shuts down the
// housekeeping loop and the worker goroutines. Idempotent; returns the first
// controller-step error observed while running, if any.
func (e *Engine) Stop() error {
	e.mu.Lock()
	if !e.started {
		err := e.stepErr
		e.mu.Unlock()
		return err
	}
	e.started = false
	e.mu.Unlock()

	// New injections are refused above; wait out the in-progress ones so no
	// inflight.Add can race the Wait below.
	e.injectors.Wait()
	e.inflight.Wait()
	close(e.done)
	e.hkWG.Wait()

	e.mu.Lock()
	e.stopped = true
	for _, w := range e.workers {
		w.cond.Broadcast()
	}
	err := e.stepErr
	e.mu.Unlock()
	e.workersWG.Wait()
	return err
}

// Now returns the scaled seconds since Start (0 before the first Start).
func (e *Engine) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.start.IsZero() {
		return 0
	}
	return time.Since(e.start).Seconds() / e.opts.TimeScale
}

// Totals returns the cumulative request counters under the engine lock.
func (e *Engine) Totals() (injected, completed, dropped, rerouted, shed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.TotalInjected, e.TotalCompleted, e.TotalDropped, e.TotalRerouted, e.TotalShed
}

// InFlight returns the number of admitted requests not yet resolved.
func (e *Engine) InFlight() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inFlightN
}

// colLocked guards against a nil collector; the Collector itself is
// internally synchronized.
func (e *Engine) colLocked(f func(*metrics.Collector)) {
	if e.col == nil {
		return
	}
	f(e.col)
}

// inject admits one client request. With an admission controller armed the
// request may instead be shed, returning false and a Retry-After hint.
func (e *Engine) inject() (admitted bool, retryAfterSec float64) {
	now := e.now()
	e.mu.Lock()
	// Offered demand counts shed requests too: the demand observation feeds
	// the planner, and the admission rate follows the planner's grants — if
	// shedding hid the excess, observed demand would be capped at the granted
	// rate and the system could never scale up out of an overload.
	e.arrivals++
	adm := e.opts.Admission
	if adm != nil {
		if ok, retry := adm.Admit(now, e.inFlightN); !ok {
			e.TotalShed++
			e.mu.Unlock()
			e.colLocked(func(c *metrics.Collector) { c.Shed(now) })
			return false, retry
		}
	}
	e.TotalInjected++
	e.inFlightN++
	e.nextRootID++
	rootID := e.nextRootID
	routes := e.routes
	var target core.WorkerID
	ok := false
	if routes != nil {
		target, ok = e.pickLocked(routes.Frontend)
	}
	e.mu.Unlock()

	e.colLocked(func(c *metrics.Collector) {
		c.Arrival(now)
		if adm != nil {
			c.Admitted(now)
		}
	})
	root := &rootReq{arrived: now, deadline: now + e.opts.SLOSec}
	root.tr = e.opts.Tracer.Start(rootID, now)
	if !ok {
		root.dropped = true
		e.finish(root)
		return true, 0
	}
	root.outstanding = 1
	e.inflight.Add(1)
	sub := &subreq{root: root, task: 0, acc: 1}
	go e.deliver(sub, target)
	return true, 0
}

// deliver moves a subrequest to a worker after one (scaled) network hop.
func (e *Engine) deliver(sub *subreq, target core.WorkerID) {
	e.sleepScaled(e.opts.NetLatencySec)
	e.mu.Lock()
	w := e.logical[target]
	if w == nil || w.spec == nil || w.spec.Task != sub.task || len(w.queue) >= w.qcap {
		e.mu.Unlock()
		e.abandon(sub)
		return
	}
	sub.enqueued = e.now()
	w.queue = append(w.queue, sub)
	e.taskArrivals[sub.task]++
	w.cond.Signal()
	e.mu.Unlock()
	e.opts.Telemetry.Enqueue(sub.enqueued, w.phys)
}

// workerLoop executes batches until the engine stops.
func (e *Engine) workerLoop(w *worker) {
	for {
		e.mu.Lock()
		for !e.stopped && (w.spec == nil || len(w.queue) == 0) {
			w.cond.Wait()
		}
		if e.stopped {
			e.mu.Unlock()
			return
		}
		spec := w.spec
		gen := w.gen     // capture: a crash mid-batch discards the results
		speed := w.speed // capture: straggler factor at batch start
		b := len(w.queue)
		if b > spec.MaxBatch {
			b = spec.MaxBatch
		}
		batch := append([]*subreq(nil), w.queue[:b]...)
		w.queue = w.queue[b:]
		e.mu.Unlock()
		startT := e.now()
		e.opts.Telemetry.BatchStart(startT, w.phys, b)

		v := &e.g.Tasks[spec.Task].Variants[spec.Variant]
		e.sleepScaled(v.Latency(b) / speed)

		e.mu.Lock()
		stale := w.gen != gen
		e.mu.Unlock()
		if stale {
			// The worker crashed while this batch was executing: the
			// results never materialize and the roots are lost. (The crash
			// already cleared the worker's telemetry in-flight state.)
			for _, sub := range batch {
				e.abandon(sub)
			}
			continue
		}
		endT := e.now()
		e.opts.Telemetry.BatchEnd(endT, w.phys, len(batch))
		if e.opts.Tracer != nil {
			for _, sub := range batch {
				if sub.root.tr != nil {
					e.opts.Tracer.AddSpan(sub.root.tr, telemetry.Span{
						Stage:       e.g.Tasks[spec.Task].Name,
						Worker:      w.phys,
						Class:       e.opts.Classes[w.class].Name,
						EnqueuedSec: sub.enqueued,
						StartSec:    startT,
						EndSec:      endT,
						Batch:       len(batch),
					})
				}
			}
		}
		for _, sub := range batch {
			e.complete(sub, w, spec)
		}
	}
}

// complete mirrors cluster.completeAt under the live mutex.
func (e *Engine) complete(sub *subreq, w *worker, spec *core.WorkerSpec) {
	now := e.now()
	task := &e.g.Tasks[spec.Task]
	v := &task.Variants[spec.Variant]
	acc := sub.acc * v.Accuracy

	if task.IsSink() {
		sub.root.mu.Lock()
		sub.root.accSum += acc
		sub.root.accN++
		sub.root.mu.Unlock()
	}

	e.mu.Lock()
	w.hbIn++
	routes := e.routes
	var table *core.WorkerTable
	if routes != nil {
		if w.spec != nil && w.spec.Task == spec.Task {
			table = routes.Tables[w.spec.ID]
		}
		if table == nil {
			table = routes.Tables[spec.ID]
		}
	}
	type fwd struct {
		child  pipeline.TaskID
		target core.WorkerID
		drop   bool
	}
	var fwds []fwd
	totalOut := 0
	for _, child := range task.Children {
		mean := v.MultFactor * child.BranchRatio
		k := e.poissonLocked(mean)
		totalOut += k
		for i := 0; i < k; i++ {
			var entries []core.RouteEntry
			if table != nil {
				entries = table.PerChild[child.Task]
			}
			target, ok := e.pickLocked(entries)
			if !ok {
				fwds = append(fwds, fwd{child: child.Task, drop: true})
				continue
			}
			nextExec := 0.0
			if tw := e.logical[target]; tw != nil && tw.spec != nil {
				nextExec = tw.spec.LatencySec
			}
			ctx := policy.Context{
				Now:         now,
				Deadline:    sub.root.deadline,
				EnteredTask: sub.enqueued,
				Budget:      spec.BudgetSec,
				HasNext:     true,
				NextTask:    child.Task,
				NextIsSink:  len(e.g.Tasks[child.Task].Children) == 0,
				NextExec:    nextExec,
				NetLatency:  e.opts.NetLatencySec,
				MinTail:     e.minTail[child.Task],
				FindBackup:  e.findBackupLocked,
			}
			d := e.pol.OnTaskComplete(&ctx)
			if d.Drop {
				fwds = append(fwds, fwd{child: child.Task, drop: true})
				continue
			}
			if d.Reroute {
				target = d.Alternate
				e.TotalRerouted++
			}
			fwds = append(fwds, fwd{child: child.Task, target: target})
		}
	}
	w.hbOut += totalOut
	e.mu.Unlock()

	dropped := false
	spawned := 0
	for _, f := range fwds {
		if f.drop {
			dropped = true
			continue
		}
		spawned++
	}
	sub.root.mu.Lock()
	if dropped {
		sub.root.dropped = true
	}
	sub.root.outstanding += spawned
	sub.root.mu.Unlock()
	for _, f := range fwds {
		if f.drop {
			continue
		}
		child := &subreq{root: sub.root, task: f.child, acc: acc}
		e.inflight.Add(1)
		go e.deliver(child, f.target)
	}

	e.release(sub.root)
}

// release decrements a root's outstanding count and finishes it at zero.
// The caller must have accounted for the just-finished subrequest.
func (e *Engine) release(root *rootReq) {
	root.mu.Lock()
	root.outstanding--
	fin := root.outstanding == 0
	root.mu.Unlock()
	if fin {
		e.finish(root)
	}
	e.inflight.Done()
}

func (e *Engine) abandon(sub *subreq) {
	sub.root.mu.Lock()
	sub.root.dropped = true
	sub.root.mu.Unlock()
	e.release(sub.root)
}

// abandonLocked is abandon for subrequests still queued when a worker is
// reassigned; e.mu is held, so only the root is touched.
func (e *Engine) abandonLocked(sub *subreq) {
	go e.abandon(sub)
}

func (e *Engine) finish(root *rootReq) {
	now := e.now()
	e.mu.Lock()
	e.inFlightN--
	if root.dropped {
		e.TotalDropped++
	} else {
		e.TotalCompleted++
	}
	e.mu.Unlock()
	if root.dropped {
		e.colLocked(func(c *metrics.Collector) { c.Dropped(now, root.arrived) })
		e.opts.Tracer.Finish(root.tr, now, true, false)
		return
	}
	late := now > root.deadline+1e-9
	e.opts.Tracer.Finish(root.tr, now, false, late)
	accuracy := math.NaN()
	if root.accN > 0 {
		accuracy = root.accSum / float64(root.accN)
	}
	e.colLocked(func(c *metrics.Collector) { c.Completed(now, late, now-root.arrived, accuracy) })
}

func (e *Engine) pickLocked(entries []core.RouteEntry) (core.WorkerID, bool) {
	if len(entries) == 0 {
		return 0, false
	}
	r := e.rng.Float64()
	total := 0.0
	for _, en := range entries {
		total += en.Prob
		r -= en.Prob
		if r <= 0 {
			return en.Worker, true
		}
	}
	if total >= 1-1e-9 {
		return entries[len(entries)-1].Worker, true
	}
	return 0, false
}

func (e *Engine) findBackupLocked(task pipeline.TaskID, maxExec float64) (core.WorkerID, bool) {
	if e.routes == nil {
		return 0, false
	}
	for _, b := range e.routes.Backup[task] {
		if b.ExecSec <= maxExec && e.backupLeft[b.Worker] >= 1 {
			e.backupLeft[b.Worker]--
			return b.Worker, true
		}
	}
	return 0, false
}

func (e *Engine) poissonLocked(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= e.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
