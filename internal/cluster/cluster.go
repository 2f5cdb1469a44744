// Package cluster is the discrete-event serving substrate: a fixed-size
// cluster of batching workers executing inference pipelines under a
// homogeneous network delay. It reproduces the mechanisms of the paper's
// testbed and of the simulator its evaluation runs on (§6.1): per-worker
// FIFO queues, work-conserving batch formation up to the plan's max batch
// size, batch-size-dependent execution latency, stochastic intermediate
// query fan-out (the multiplicative factors of §4.2), worker heartbeats
// reporting observed factors, model-swap pauses on reconfiguration, and the
// early-dropping policies of §5.2 at every task boundary.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"loki/internal/core"
	"loki/internal/metrics"
	"loki/internal/pipeline"
	"loki/internal/policy"
	"loki/internal/profiles"
	"loki/internal/sim"
	"loki/internal/telemetry"
)

// Options configures the simulated cluster.
type Options struct {
	// Classes partitions the workers into hardware classes: the first
	// Classes[0].Count physical workers belong to class 0, the next to
	// class 1, and so on; their total count is the cluster's size. Each
	// worker executes at its class's Speed and a plan's specs are placed
	// only on workers of their own class (model swaps never cross classes).
	Classes []profiles.Class
	// SLOSec is the end-to-end latency SLO attached to every request.
	SLOSec float64
	// NetLatencySec is the homogeneous one-hop communication latency.
	NetLatencySec float64
	// Seed drives all stochastic choices (routing, fan-out, jitter).
	Seed int64
	// SwapLatencySec stalls a worker that changes model variant (model
	// load time). Zero disables swap modeling.
	SwapLatencySec float64
	// ExecJitter adds ±relative noise to every batch execution, modeling
	// the real-hardware variance the paper cites when validating its
	// simulator. Zero means deterministic execution.
	ExecJitter float64
	// QueueFactor caps each worker's queue at QueueFactor × QPS × SLO
	// requests (≥ 2×MaxBatch); beyond that a request is hopeless and is
	// dropped at enqueue. Zero means 2.0.
	QueueFactor float64
	// Telemetry, when non-nil, receives per-worker enqueue/batch/swap/fault
	// events; it updates on the simulator's single event goroutine so the
	// seeded run is untouched. Nil disables collection.
	Telemetry *telemetry.Collector
	// Tracer, when non-nil, samples root requests into span trees using its
	// own RNG (never this cluster's seeded stream). Nil disables tracing.
	Tracer *telemetry.Tracer
}

// Cluster is the simulated worker pool. Drive it by scheduling
// InjectRequest calls on its engine and applying plans from a controller.
type Cluster struct {
	eng     *sim.Engine
	meta    *core.MetadataStore
	opts    Options
	policy  policy.Policy
	metrics *metrics.Collector

	g       *pipeline.Graph
	rng     *rand.Rand
	workers []*worker
	rec     *core.Reconciler // which spec sits on which physical worker
	names   [][]string       // [task][variant] → "task/variant", the telemetry row's label
	routes  *core.Routes
	hop     *sim.Lane // the network hop every delivery rides

	// The routes compiled by ApplyPlan into slices indexed by WorkerID (spec
	// IDs are dense, so each is sized by the largest one): the worker hosting
	// each spec, whether routes.Tables holds a table for it, its entries for
	// each child task at perChild[id*len(tasks)+child], and its leftover
	// capacity for rerouting.
	logical    []*worker
	hasTable   []bool
	perChild   [][]core.RouteEntry
	backupLeft []float64

	minTail []float64     // per task: fastest possible time to finish its subtree
	fanout  [][][]float64 // [task][variant][child]: exp(-mean fan-out), poisson's threshold

	arrivals     int   // since the last FlushDemand
	taskArrivals []int // per-task enqueues since the last FlushTaskArrivals
	nextRootID   int64
	inflight     int

	// ctx is the one policy context every forward fills; its FindBackup is
	// bound once, in New.
	ctx policy.Context
	// Free lists of released request-path objects. They start empty, grow
	// to the run's high-water mark and die with the cluster; the single
	// event goroutine means they need no lock.
	freeRoots   []*rootRequest
	freeSubs    []*subrequest
	freeBatches []*batch

	// Totals for invariant checks and reporting.
	totalInjected  int64
	totalCompleted int64
	totalDropped   int64
	totalRerouted  int64
	totalSwaps     int64

	// Drop-cause breakdown (per subrequest, not per root).
	dropsQueueFull int64
	dropsNoRoute   int64
	dropsPolicy    int64
	dropsStale     int64
	dropsFault     int64
}

type worker struct {
	phys      int
	class     int              // hardware class index (fixed for the worker's lifetime)
	speed     float64          // current execution speed (baseSpeed × straggler factor)
	baseSpeed float64          // the class's nominal execution speed
	spec      *core.WorkerSpec // nil when idle (server shut down)
	queue     []*subrequest
	busy      bool
	swapUntil float64
	qcap      int

	// Fault state: whether the worker is down is the Reconciler's to know
	// (it skips down workers when placing); gen increments on every crash so
	// a stale batch completion can tell its batch died with the old
	// incarnation.
	gen int

	// Heartbeat accumulators: inputs executed and outputs emitted.
	hbIn, hbOut int
}

type rootRequest struct {
	id          int64
	arrived     float64
	deadline    float64
	outstanding int
	dropped     bool
	accSum      float64
	accN        int
	tr          *telemetry.ReqTrace // nil unless sampled
}

// subrequest is one query of a root request on its way to, or waiting at, a
// worker of one task. Subrequests are recycled through the cluster's free
// list; arrive is bound once, when the object is first made.
type subrequest struct {
	root     *rootRequest
	task     pipeline.TaskID
	acc      float64 // product of variant accuracies before this task
	enqueued float64
	target   core.WorkerID // the logical worker the network hop delivers to
	arrive   func()        // c.arrive(s)
}

// batch is one execution on a worker, with what it captured at start:
// reconfiguration must not affect a running batch, and a crash mid-batch
// (a new gen) discards its results. Batches are recycled like subrequests.
type batch struct {
	w     *worker
	spec  *core.WorkerSpec
	gen   int
	start float64
	subs  []*subrequest
	done  func() // c.batchDone(b)
}

// New creates a cluster on the given engine.
func New(eng *sim.Engine, meta *core.MetadataStore, pol policy.Policy, col *metrics.Collector, opts Options) (*Cluster, error) {
	servers := profiles.TotalCount(opts.Classes)
	if servers <= 0 {
		return nil, fmt.Errorf("cluster: need a positive server count")
	}
	if opts.QueueFactor == 0 {
		opts.QueueFactor = 2.0
	}
	c := &Cluster{
		eng:     eng,
		meta:    meta,
		opts:    opts,
		policy:  pol,
		metrics: col,
		g:       meta.Graph(),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		rec:     core.NewReconciler(opts.Classes),
		names:   core.AssignedNames(meta.Graph()),
		hop:     eng.NewLane(opts.NetLatencySec),
		workers: make([]*worker, servers),
	}
	c.ctx.FindBackup = c.findBackup
	// Physical workers are laid out class by class: the first
	// Classes[0].Count servers belong to class 0, and so on. They live in
	// one slab, so a large pool costs two allocations, not one per worker.
	slab := make([]worker, servers)
	phys := 0
	for cl, class := range opts.Classes {
		speed := class.Speed
		if speed == 0 {
			speed = 1.0
		}
		for i := 0; i < class.Count; i++ {
			slab[phys] = worker{phys: phys, class: cl, speed: speed, baseSpeed: speed}
			c.workers[phys] = &slab[phys]
			phys++
		}
	}
	c.taskArrivals = make([]int, len(c.g.Tasks))
	c.fanout = make([][][]float64, len(c.g.Tasks))
	for t := range c.g.Tasks {
		task := &c.g.Tasks[t]
		c.fanout[t] = make([][]float64, len(task.Variants))
		for v := range task.Variants {
			thr := make([]float64, len(task.Children))
			for i, child := range task.Children {
				thr[i] = poissonThreshold(task.Variants[v].MultFactor * child.BranchRatio)
			}
			c.fanout[t][v] = thr
		}
	}

	// minTail[t]: network hop + fastest execution of t (over every hardware
	// class) + deepest child tail — the optimistic remaining latency the
	// Opportunistic policy compares against the deadline.
	classProf := meta.ClassProfiles()
	c.minTail = make([]float64, len(c.g.Tasks))
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
		worstChild := 0.0
		for _, ch := range c.g.Tasks[t].Children {
			if v := tail(ch.Task); v > worstChild {
				worstChild = v
			}
		}
		c.minTail[t] = opts.NetLatencySec + minExec + worstChild
		return c.minTail[t]
	}
	tail(0)
	return c, nil
}

// ActiveServers returns the number of workers currently hosting a model.
func (c *Cluster) ActiveServers() int { return c.rec.Placed() }

// ActiveByClass returns the number of workers currently hosting a model in
// each hardware class, in class order.
func (c *Cluster) ActiveByClass() []int {
	out := make([]int, len(c.opts.Classes))
	for _, w := range c.workers {
		if w.spec != nil {
			out[w.class]++
		}
	}
	return out
}

// Inflight returns the number of root requests still in the system.
func (c *Cluster) Inflight() int { return c.inflight }

// Totals returns the cumulative request counters in one shot (the
// engine-facing accessor behind engine.Stats).
func (c *Cluster) Totals() (injected, completed, dropped, rerouted, swaps int64) {
	return c.totalInjected, c.totalCompleted, c.totalDropped, c.totalRerouted, c.totalSwaps
}

// FlushDemand returns the arrivals since the previous call (the Frontend's
// per-interval demand report to the Controller).
func (c *Cluster) FlushDemand() int {
	n := c.arrivals
	c.arrivals = 0
	return n
}

// FlushTaskArrivals returns per-task enqueue counts since the previous call.
// The Proteus-like baseline scales each task against this per-task history.
func (c *Cluster) FlushTaskArrivals() []int {
	out := append([]int(nil), c.taskArrivals...)
	for i := range c.taskArrivals {
		c.taskArrivals[i] = 0
	}
	return out
}

// ApplyPlan reconfigures the cluster to a new plan and routing tables (the
// Resource Manager adjusting worker↔variant assignments, §3). Placement is
// core.Reconciler's: workers that keep their exact configuration are
// untouched and unchanged replicas keep serving through the reconfiguration.
// What is simulated here is the effect on each worker that held or receives a
// spec: a change of variant or batch size stalls it for SwapLatencySec, and a
// change of task (or a shutdown) also forfeits its queued requests.
func (c *Cluster) ApplyPlan(plan *core.Plan, routes *core.Routes) {
	now := c.eng.Now()
	c.routes = routes
	c.compileRoutes(routes)

	for _, wi := range c.rec.Reconcile(routes.Specs) {
		w, ns := c.workers[wi], c.rec.Held(wi)
		if ns == nil {
			// Server shut down (hardware scaling): queued requests at a
			// vanishing worker are lost.
			c.dropQueue(w)
			w.spec = nil
			c.opts.Telemetry.SetAssigned(now, w.phys, "")
			continue
		}
		c.logical[ns.ID] = w
		if w.spec == nil || !core.SameConfig(w.spec, ns) {
			// New model (or batch limit) must be loaded.
			if w.spec != nil && w.spec.Task != ns.Task {
				c.dropQueue(w)
			}
			if c.opts.SwapLatencySec > 0 {
				w.swapUntil = now + c.opts.SwapLatencySec
				c.totalSwaps++
				c.opts.Telemetry.Swap(now, w.phys)
				wq := w
				c.eng.At(w.swapUntil, func() { c.tryStart(wq) })
			}
		}
		w.spec = ns // same config: possibly a new ID
		c.tryStart(w)
		w.qcap = ns.QueueCap(c.opts.QueueFactor, c.opts.SLOSec)
		c.opts.Telemetry.SetAssigned(now, w.phys, c.names[ns.Task][ns.Variant])
	}
}

// compileRoutes sizes the WorkerID-indexed slices for routes and fills the
// routing tables and rerouting capacities; ApplyPlan fills logical. The
// slices keep their capacity across publishes and are cleared in full, so
// nothing of a larger previous plan survives.
func (c *Cluster) compileRoutes(routes *core.Routes) {
	n := 0 // one past the largest WorkerID the routes name
	for i := range routes.Specs {
		n = max(n, int(routes.Specs[i].ID)+1)
	}
	for id := range routes.Tables {
		n = max(n, int(id)+1)
	}
	for _, entries := range routes.Backup {
		for _, e := range entries {
			n = max(n, int(e.Worker)+1)
		}
	}
	nt := len(c.g.Tasks)
	c.logical = resize(c.logical, n)
	c.hasTable = resize(c.hasTable, n)
	c.perChild = resize(c.perChild, n*nt)
	c.backupLeft = resize(c.backupLeft, n)
	for id, t := range routes.Tables {
		if t == nil {
			continue
		}
		c.hasTable[id] = true
		for child, entries := range t.PerChild {
			if int(child) < nt {
				c.perChild[int(id)*nt+int(child)] = entries
			}
		}
	}
	for _, entries := range routes.Backup {
		for _, e := range entries {
			c.backupLeft[e.Worker] = e.Leftover
		}
	}
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	clear(s)
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dropQueue abandons every queued request; the queue keeps its capacity.
func (c *Cluster) dropQueue(w *worker) {
	for _, sub := range w.queue {
		c.abandon(sub)
	}
	clear(w.queue)
	w.queue = w.queue[:0]
	c.opts.Telemetry.QueueCleared(c.eng.Now(), w.phys)
}

// SetWorkerDown crashes physical worker phys: queued requests are lost, the
// in-flight batch (if any) is discarded when its completion timer fires, the
// worker leaves the logical route table, and it stops counting toward class
// capacity until SetWorkerUp. Idempotent.
func (c *Cluster) SetWorkerDown(phys int) {
	if !c.rec.SetDown(phys, true) {
		return
	}
	w := c.workers[phys]
	w.gen++ // in-flight batch, if any, dies with the old incarnation
	if w.spec != nil {
		if c.workerAt(w.spec.ID) == w {
			c.logical[w.spec.ID] = nil
		}
		w.spec = nil
	}
	w.busy = false
	w.swapUntil = 0
	c.dropsFault += int64(len(w.queue))
	c.dropQueue(w)
	c.opts.Telemetry.SetDown(c.eng.Now(), phys, true)
}

// SetWorkerUp brings a crashed worker back as an idle server; the next
// ApplyPlan may claim it again. Idempotent.
func (c *Cluster) SetWorkerUp(phys int) {
	c.rec.SetDown(phys, false)
	c.opts.Telemetry.SetDown(c.eng.Now(), phys, false)
}

// SetWorkerSpeedFactor scales a worker's execution speed relative to its
// class's nominal speed (a straggler at factor 0.25 runs four times slower);
// factor 1 restores full speed. A batch already executing keeps the latency
// it started with.
func (c *Cluster) SetWorkerSpeedFactor(phys int, factor float64) {
	w := c.workers[phys]
	w.speed = w.baseSpeed * factor
	c.opts.Telemetry.SetSpeed(c.eng.Now(), phys, factor)
}

// InjectRequest admits one client query at the current time.
func (c *Cluster) InjectRequest() {
	now := c.eng.Now()
	c.arrivals++
	c.totalInjected++
	if c.metrics != nil {
		c.metrics.Arrival(now)
	}
	c.nextRootID++
	root := c.newRoot()
	root.id = c.nextRootID
	root.arrived = now
	root.deadline = now + c.opts.SLOSec
	root.tr = c.opts.Tracer.Start(root.id, now)
	c.inflight++

	if c.routes == nil || len(c.routes.Frontend) == 0 {
		root.dropped = true
		c.finish(root)
		return
	}
	target, ok := c.pick(c.routes.Frontend)
	if !ok {
		root.dropped = true
		c.finish(root)
		return
	}
	root.outstanding = 1
	c.deliver(c.newSub(root, 0, 1), target)
}

// newRoot takes a zeroed root request from the free list, or makes one.
func (c *Cluster) newRoot() *rootRequest {
	n := len(c.freeRoots)
	if n == 0 {
		return &rootRequest{}
	}
	r := c.freeRoots[n-1]
	c.freeRoots = c.freeRoots[:n-1]
	return r
}

// releaseRoot zeroes a finished root request and returns it.
func (c *Cluster) releaseRoot(r *rootRequest) {
	*r = rootRequest{}
	c.freeRoots = append(c.freeRoots, r)
}

// newSub takes a subrequest from the free list, or makes one and binds its
// arrival callback.
func (c *Cluster) newSub(root *rootRequest, task pipeline.TaskID, acc float64) *subrequest {
	var s *subrequest
	if n := len(c.freeSubs); n > 0 {
		s = c.freeSubs[n-1]
		c.freeSubs = c.freeSubs[:n-1]
	} else {
		s = &subrequest{}
		s.arrive = func() { c.arrive(s) }
	}
	s.root, s.task, s.acc = root, task, acc
	return s
}

// releaseSub returns a subrequest whose last reference has died.
func (c *Cluster) releaseSub(s *subrequest) {
	s.root = nil
	c.freeSubs = append(c.freeSubs, s)
}

// newBatch takes a batch from the free list, or makes one and binds its
// completion callback.
func (c *Cluster) newBatch() *batch {
	n := len(c.freeBatches)
	if n == 0 {
		b := &batch{}
		b.done = func() { c.batchDone(b) }
		return b
	}
	b := c.freeBatches[n-1]
	c.freeBatches = c.freeBatches[:n-1]
	return b
}

// releaseBatch returns a finished batch; its subs buffer keeps its capacity.
func (c *Cluster) releaseBatch(b *batch) {
	clear(b.subs)
	b.subs = b.subs[:0]
	b.w, b.spec = nil, nil
	c.freeBatches = append(c.freeBatches, b)
}

// deliver moves a subrequest to a logical worker after one network hop.
func (c *Cluster) deliver(sub *subrequest, target core.WorkerID) {
	sub.target = target
	c.hop.After(sub.arrive)
}

// workerAt returns the worker hosting spec id, nil when none does or the
// current routes do not name id.
func (c *Cluster) workerAt(id core.WorkerID) *worker {
	if uint(id) >= uint(len(c.logical)) {
		return nil
	}
	return c.logical[id]
}

// arrive enqueues a subrequest at the end of its network hop.
func (c *Cluster) arrive(sub *subrequest) {
	w := c.workerAt(sub.target)
	if w == nil || w.spec == nil || w.spec.Task != sub.task {
		// The worker was reassigned while the request was in flight.
		c.dropsStale++
		c.abandon(sub)
		return
	}
	if len(w.queue) >= w.qcap {
		c.dropsQueueFull++
		c.abandon(sub) // queue overflow
		return
	}
	sub.enqueued = c.eng.Now()
	c.taskArrivals[sub.task]++
	w.queue = append(w.queue, sub)
	c.opts.Telemetry.Enqueue(sub.enqueued, w.phys)
	c.tryStart(w)
}

// tryStart begins a batch if the worker is free: a work-conserving policy
// that takes min(queue, maxBatch) requests immediately.
func (c *Cluster) tryStart(w *worker) {
	now := c.eng.Now()
	if w.busy || w.spec == nil || now < w.swapUntil || len(w.queue) == 0 {
		return
	}
	n := len(w.queue)
	if n > w.spec.MaxBatch {
		n = w.spec.MaxBatch
	}
	b := c.newBatch()
	b.w, b.spec, b.gen, b.start = w, w.spec, w.gen, now
	b.subs = append(b.subs, w.queue[:n]...)
	// Shift the rest of the queue to the front, keeping its buffer.
	rest := copy(w.queue, w.queue[n:])
	clear(w.queue[rest:])
	w.queue = w.queue[:rest]
	w.busy = true
	c.opts.Telemetry.BatchStart(now, w.phys, n)

	v := &c.g.Tasks[b.spec.Task].Variants[b.spec.Variant]
	lat := v.Latency(n) / w.speed
	if c.opts.ExecJitter > 0 {
		lat *= 1 + c.opts.ExecJitter*(2*c.rng.Float64()-1)
	}
	c.eng.After(lat, b.done)
}

// batchDone ends a batch's execution: its requests complete and the worker
// takes its next batch.
func (c *Cluster) batchDone(b *batch) {
	w, spec := b.w, b.spec
	if w.gen != b.gen {
		// The worker crashed while this batch was executing: the results
		// never materialize and the roots are lost. (The crash already
		// cleared the worker's telemetry in-flight state.)
		c.dropsFault += int64(len(b.subs))
		for _, sub := range b.subs {
			c.abandon(sub)
		}
		c.releaseBatch(b)
		return
	}
	w.busy = false
	endT := c.eng.Now()
	c.opts.Telemetry.BatchEnd(endT, w.phys, len(b.subs))
	if c.opts.Tracer != nil {
		for _, sub := range b.subs {
			if sub.root.tr != nil {
				c.opts.Tracer.AddSpan(sub.root.tr, telemetry.Span{
					Stage:       c.g.Tasks[spec.Task].Name,
					Worker:      w.phys,
					Class:       c.opts.Classes[w.class].Name,
					EnqueuedSec: sub.enqueued,
					StartSec:    b.start,
					EndSec:      endT,
					Batch:       len(b.subs),
				})
			}
		}
	}
	for _, sub := range b.subs {
		c.completeAt(sub, w, spec)
	}
	c.releaseBatch(b)
	c.tryStart(w)
}

// completeAt handles one request finishing execution at a worker: record the
// variant's accuracy, emit intermediate queries to children (with sampled
// multiplicative factors), run the drop policy per branch, and detect sink
// completions. The subrequest is released afterwards.
func (c *Cluster) completeAt(sub *subrequest, w *worker, spec *core.WorkerSpec) {
	now := c.eng.Now()
	task := &c.g.Tasks[spec.Task]
	v := &task.Variants[spec.Variant]
	acc := sub.acc * v.Accuracy

	w.hbIn++

	if task.IsSink() {
		sub.root.accSum += acc
		sub.root.accN++
	}

	table := c.tableFor(w, spec)
	thr := c.fanout[spec.Task][spec.Variant]
	totalOut := 0
	for i, child := range task.Children {
		k := c.poisson(thr[i])
		totalOut += k
		for j := 0; j < k; j++ {
			c.forward(sub, spec, child.Task, table, acc, now)
		}
	}
	w.hbOut += totalOut

	root := sub.root
	c.releaseSub(sub)
	root.outstanding--
	if root.outstanding == 0 {
		c.finish(root)
	}
}

// tableFor resolves which spec's routing table serves queries leaving a
// worker, or -1 when none does. A batch captures its spec at start, so after
// a reconfiguration the spec's logical ID may be stale; prefer the worker's
// current table when it still serves the same task.
func (c *Cluster) tableFor(w *worker, spec *core.WorkerSpec) core.WorkerID {
	if w.spec != nil && w.spec.Task == spec.Task && c.tableExists(w.spec.ID) {
		return w.spec.ID
	}
	if c.tableExists(spec.ID) {
		return spec.ID
	}
	return -1
}

// tableExists reports whether the current routes hold a table for spec id.
func (c *Cluster) tableExists(id core.WorkerID) bool {
	return uint(id) < uint(len(c.hasTable)) && c.hasTable[id]
}

// childRoutes returns spec id's route entries for child, as
// routes.Tables[id].PerChild[child] holds them; nil when id is -1 or the
// routes hold nothing there.
func (c *Cluster) childRoutes(id core.WorkerID, child pipeline.TaskID) []core.RouteEntry {
	if !c.tableExists(id) {
		return nil
	}
	return c.perChild[int(id)*len(c.g.Tasks)+int(child)]
}

// anyWorkerOf returns some live worker currently serving the task, used as
// a fallback route across reconfigurations.
func (c *Cluster) anyWorkerOf(task pipeline.TaskID) (core.WorkerID, bool) {
	if c.routes == nil {
		return 0, false
	}
	for i := range c.routes.Specs {
		s := &c.routes.Specs[i]
		if s.Task != task {
			continue
		}
		if w := c.workerAt(s.ID); w != nil && w.spec != nil && w.spec.Task == task {
			return s.ID, true
		}
	}
	return 0, false
}

// forward routes one intermediate query to a child-task worker, applying
// the early-dropping policy.
func (c *Cluster) forward(sub *subrequest, spec *core.WorkerSpec, childTask pipeline.TaskID, table core.WorkerID, acc float64, now float64) {
	target, ok := c.pick(c.childRoutes(table, childTask))
	if !ok {
		// Stale table after a reconfiguration: fall back to any live
		// worker of the child task before giving up.
		target, ok = c.anyWorkerOf(childTask)
	}
	if !ok {
		c.dropsNoRoute++
		sub.root.dropped = true
		return
	}
	nextExec := 0.0
	if tw := c.workerAt(target); tw != nil && tw.spec != nil {
		nextExec = tw.spec.LatencySec
	}

	ctx := &c.ctx
	ctx.Now = now
	ctx.Deadline = sub.root.deadline
	ctx.EnteredTask = sub.enqueued
	ctx.Budget = spec.BudgetSec
	ctx.HasNext = true
	ctx.NextTask = childTask
	ctx.NextIsSink = len(c.g.Tasks[childTask].Children) == 0
	ctx.NextExec = nextExec
	ctx.NetLatency = c.opts.NetLatencySec
	ctx.MinTail = c.minTail[childTask]
	d := c.policy.OnTaskComplete(ctx)
	if d.Drop {
		c.dropsPolicy++
		sub.root.dropped = true
		return
	}
	if d.Reroute {
		target = d.Alternate
		c.totalRerouted++
	}
	sub.root.outstanding++
	c.deliver(c.newSub(sub.root, childTask, acc), target)
}

// findBackup implements the §5.2 backup-table lookup: the most accurate
// worker of the task with leftover capacity and execution time ≤ maxExec.
func (c *Cluster) findBackup(task pipeline.TaskID, maxExec float64) (core.WorkerID, bool) {
	if c.routes == nil {
		return 0, false
	}
	for _, e := range c.routes.Backup[task] {
		if e.ExecSec <= maxExec && c.backupLeft[e.Worker] >= 1 {
			c.backupLeft[e.Worker]--
			return e.Worker, true
		}
	}
	return 0, false
}

// abandon drops one subrequest (queue overflow, lost worker, or no route)
// and releases it.
func (c *Cluster) abandon(sub *subrequest) {
	root := sub.root
	c.releaseSub(sub)
	root.dropped = true
	root.outstanding--
	if root.outstanding == 0 {
		c.finish(root)
	}
}

// finish closes out a root request, records its outcome and releases it.
func (c *Cluster) finish(root *rootRequest) {
	now := c.eng.Now()
	c.inflight--
	defer c.releaseRoot(root)
	if root.dropped {
		c.totalDropped++
		if c.metrics != nil {
			c.metrics.Dropped(now, root.arrived)
		}
		c.opts.Tracer.Finish(root.tr, now, true, false)
		return
	}
	c.totalCompleted++
	late := now > root.deadline+1e-9
	c.opts.Tracer.Finish(root.tr, now, false, late)
	accuracy := math.NaN()
	if root.accN > 0 {
		accuracy = root.accSum / float64(root.accN)
	}
	if c.metrics != nil {
		c.metrics.Completed(now, late, now-root.arrived, accuracy)
	}
}

// pick samples a route entry. Probabilities may sum below 1: the Load
// Balancer leaves demand beyond capacity unrouted, and the unlucky share is
// shed here (admission control at the frontend, forwarding drops between
// tasks) rather than poured into full queues.
func (c *Cluster) pick(entries []core.RouteEntry) (core.WorkerID, bool) {
	if len(entries) == 0 {
		return 0, false
	}
	r := c.rng.Float64()
	total := 0.0
	for _, e := range entries {
		total += e.Prob
		r -= e.Prob
		if r <= 0 {
			return e.Worker, true
		}
	}
	if total >= 1-1e-9 {
		// Fully-routed table; r landed in floating-point dust.
		return entries[len(entries)-1].Worker, true
	}
	return 0, false
}

// poissonThreshold is exp(-mean), the threshold poisson samples against;
// +Inf for a mean ≤ 0, which draws nothing.
func poissonThreshold(mean float64) float64 {
	if mean <= 0 {
		return math.Inf(1)
	}
	return math.Exp(-mean)
}

// poisson samples a Poisson variate by Knuth's method (means here are small)
// from its poissonThreshold l.
func (c *Cluster) poisson(l float64) int {
	if l > 1 {
		return 0
	}
	k := 0
	p := 1.0
	for {
		p *= c.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k // mean pathologically large; bound the loop
		}
	}
}

// Heartbeat flushes worker-observed multiplicative factors to the Metadata
// Store (§3's heartbeat messages) and samples utilization. The observed
// output count is thinned by the branch ratios (only e.g. cars reach the
// classifier), so the raw factor is recovered by dividing the ratio sum
// back out before reporting.
func (c *Cluster) Heartbeat() {
	now := c.eng.Now()
	for _, w := range c.workers {
		if w.spec == nil || w.hbIn == 0 {
			continue
		}
		task := &c.g.Tasks[w.spec.Task]
		sumRatio := 0.0
		for _, ch := range task.Children {
			sumRatio += ch.BranchRatio
		}
		if sumRatio > 0 {
			observed := float64(w.hbOut) / (float64(w.hbIn) * sumRatio)
			c.meta.ReportMultFactor(w.spec.Task, w.spec.Variant, observed)
		}
		w.hbIn, w.hbOut = 0, 0
	}
	if c.metrics != nil {
		c.metrics.SampleServers(now, c.ActiveServers())
		c.metrics.SampleClassServers(c.ActiveByClass())
	}
	c.opts.Telemetry.Sample(now)
}
