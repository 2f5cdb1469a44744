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
	// Servers is the number of physical workers. With Classes set it must
	// equal (or be left zero to inherit) the classes' total count.
	Servers int
	// Classes partitions the workers into hardware classes: the first
	// Classes[0].Count physical workers belong to class 0, the next to
	// class 1, and so on. Each worker executes at its class's Speed and a
	// plan's specs are placed only on workers of their own class (model
	// swaps never cross classes). Nil means one "default" class holding
	// every server at speed 1.0 — the pre-class behavior, bit for bit.
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
	Eng     *sim.Engine
	Meta    *core.MetadataStore
	Opts    Options
	Policy  policy.Policy
	Metrics *metrics.Collector

	g       *pipeline.Graph
	rng     *rand.Rand
	workers []*worker
	rec     *core.Reconciler // which spec sits on which physical worker
	names   [][]string       // [task][variant] → "task/variant", the telemetry row's label
	logical map[core.WorkerID]*worker
	routes  *core.Routes

	backupLeft map[core.WorkerID]float64
	minTail    []float64 // per task: fastest possible time to finish its subtree

	arrivals     int   // since the last FlushDemand
	taskArrivals []int // per-task enqueues since the last FlushTaskArrivals
	nextRootID   int64
	inflight     int

	// Totals for invariant checks and reporting.
	TotalInjected  int64
	TotalCompleted int64
	TotalDropped   int64
	TotalRerouted  int64
	TotalSwaps     int64

	// Drop-cause breakdown (per subrequest, not per root).
	DropsQueueFull int64
	DropsNoRoute   int64
	DropsPolicy    int64
	DropsStale     int64
	DropsFault     int64
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
	// a stale completion closure can tell its batch died with the old
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

type subrequest struct {
	root     *rootRequest
	task     pipeline.TaskID
	acc      float64 // product of variant accuracies before this task
	enqueued float64
}

// New creates a cluster on the given engine.
func New(eng *sim.Engine, meta *core.MetadataStore, pol policy.Policy, col *metrics.Collector, opts Options) (*Cluster, error) {
	if opts.Classes == nil {
		opts.Classes = profiles.DefaultClasses(opts.Servers)
	}
	if total := profiles.TotalCount(opts.Classes); opts.Servers == 0 {
		opts.Servers = total
	} else if opts.Servers != total {
		return nil, fmt.Errorf("cluster: Servers (%d) disagrees with the hardware classes' total count (%d)", opts.Servers, total)
	}
	if opts.Servers <= 0 {
		return nil, fmt.Errorf("cluster: need a positive server count")
	}
	if opts.QueueFactor == 0 {
		opts.QueueFactor = 2.0
	}
	c := &Cluster{
		Eng:        eng,
		Meta:       meta,
		Opts:       opts,
		Policy:     pol,
		Metrics:    col,
		g:          meta.Graph(),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		rec:        core.NewReconciler(opts.Classes),
		names:      core.AssignedNames(meta.Graph()),
		logical:    map[core.WorkerID]*worker{},
		backupLeft: map[core.WorkerID]float64{},
	}
	// Physical workers are laid out class by class: the first
	// Classes[0].Count servers belong to class 0, and so on.
	for cl, class := range opts.Classes {
		speed := class.Speed
		if speed == 0 {
			speed = 1.0
		}
		for i := 0; i < class.Count; i++ {
			c.workers = append(c.workers, &worker{phys: len(c.workers), class: cl, speed: speed, baseSpeed: speed})
		}
	}
	c.taskArrivals = make([]int, len(c.g.Tasks))

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
	out := make([]int, len(c.Opts.Classes))
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
	return c.TotalInjected, c.TotalCompleted, c.TotalDropped, c.TotalRerouted, c.TotalSwaps
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
// core.Reconciler's (shared with the wall-clock engine): workers that keep
// their exact configuration are untouched and unchanged replicas keep serving
// through the reconfiguration. What is simulated here is the effect on each
// worker that held or receives a spec: a change of variant or batch size
// stalls it for SwapLatencySec, and a change of task (or a shutdown) also
// forfeits its queued requests.
func (c *Cluster) ApplyPlan(plan *core.Plan, routes *core.Routes) {
	now := c.Eng.Now()
	c.routes = routes

	clear(c.logical)
	for _, wi := range c.rec.Reconcile(routes.Specs) {
		w, ns := c.workers[wi], c.rec.Held(wi)
		if ns == nil {
			// Server shut down (hardware scaling): queued requests at a
			// vanishing worker are lost.
			c.dropQueue(w)
			w.spec = nil
			c.Opts.Telemetry.SetAssigned(now, w.phys, "")
			continue
		}
		c.logical[ns.ID] = w
		if w.spec == nil || !core.SameConfig(w.spec, ns) {
			// New model (or batch limit) must be loaded.
			if w.spec != nil && w.spec.Task != ns.Task {
				c.dropQueue(w)
			}
			if c.Opts.SwapLatencySec > 0 {
				w.swapUntil = now + c.Opts.SwapLatencySec
				c.TotalSwaps++
				c.Opts.Telemetry.Swap(now, w.phys)
				wq := w
				c.Eng.At(w.swapUntil, func() { c.tryStart(wq) })
			}
		}
		w.spec = ns // same config: possibly a new ID
		c.tryStart(w)
		w.qcap = ns.QueueCap(c.Opts.QueueFactor, c.Opts.SLOSec)
		c.Opts.Telemetry.SetAssigned(now, w.phys, c.names[ns.Task][ns.Variant])
	}

	// Refresh rerouting capacity from the new backup tables.
	clear(c.backupLeft)
	for _, entries := range routes.Backup {
		for _, e := range entries {
			c.backupLeft[e.Worker] = e.Leftover
		}
	}
}

func (c *Cluster) dropQueue(w *worker) {
	for _, sub := range w.queue {
		c.abandon(sub)
	}
	w.queue = nil
	c.Opts.Telemetry.QueueCleared(c.Eng.Now(), w.phys)
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
		if c.logical[w.spec.ID] == w {
			delete(c.logical, w.spec.ID)
		}
		w.spec = nil
	}
	w.busy = false
	w.swapUntil = 0
	c.DropsFault += int64(len(w.queue))
	c.dropQueue(w)
	c.Opts.Telemetry.SetDown(c.Eng.Now(), phys, true)
}

// SetWorkerUp brings a crashed worker back as an idle server; the next
// ApplyPlan may claim it again. Idempotent.
func (c *Cluster) SetWorkerUp(phys int) {
	c.rec.SetDown(phys, false)
	c.Opts.Telemetry.SetDown(c.Eng.Now(), phys, false)
}

// SetWorkerSpeedFactor scales a worker's execution speed relative to its
// class's nominal speed (a straggler at factor 0.25 runs four times slower);
// factor 1 restores full speed. A batch already executing keeps the latency
// it started with.
func (c *Cluster) SetWorkerSpeedFactor(phys int, factor float64) {
	w := c.workers[phys]
	w.speed = w.baseSpeed * factor
	c.Opts.Telemetry.SetSpeed(c.Eng.Now(), phys, factor)
}

// InjectRequest admits one client query at the current time.
func (c *Cluster) InjectRequest() {
	now := c.Eng.Now()
	c.arrivals++
	c.TotalInjected++
	if c.Metrics != nil {
		c.Metrics.Arrival(now)
	}
	c.nextRootID++
	root := &rootRequest{
		id:       c.nextRootID,
		arrived:  now,
		deadline: now + c.Opts.SLOSec,
	}
	root.tr = c.Opts.Tracer.Start(root.id, now)
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
	sub := &subrequest{root: root, task: 0, acc: 1}
	c.deliver(sub, target)
}

// deliver moves a subrequest to a logical worker after one network hop.
func (c *Cluster) deliver(sub *subrequest, target core.WorkerID) {
	c.Eng.After(c.Opts.NetLatencySec, func() {
		w := c.logical[target]
		if w == nil || w.spec == nil || w.spec.Task != sub.task {
			// The worker was reassigned while the request was in flight.
			c.DropsStale++
			c.abandon(sub)
			return
		}
		if len(w.queue) >= w.qcap {
			c.DropsQueueFull++
			c.abandon(sub) // queue overflow
			return
		}
		sub.enqueued = c.Eng.Now()
		c.taskArrivals[sub.task]++
		w.queue = append(w.queue, sub)
		c.Opts.Telemetry.Enqueue(sub.enqueued, w.phys)
		c.tryStart(w)
	})
}

// tryStart begins a batch if the worker is free: a work-conserving policy
// that takes min(queue, maxBatch) requests immediately.
func (c *Cluster) tryStart(w *worker) {
	now := c.Eng.Now()
	if w.busy || w.spec == nil || now < w.swapUntil || len(w.queue) == 0 {
		return
	}
	b := len(w.queue)
	if b > w.spec.MaxBatch {
		b = w.spec.MaxBatch
	}
	batch := append([]*subrequest(nil), w.queue[:b]...)
	w.queue = w.queue[b:]
	w.busy = true
	spec := w.spec // capture: reconfiguration must not affect a running batch
	gen := w.gen   // capture: a crash mid-batch discards the results
	startT := now
	c.Opts.Telemetry.BatchStart(now, w.phys, b)

	v := &c.g.Tasks[spec.Task].Variants[spec.Variant]
	lat := v.Latency(b) / w.speed
	if c.Opts.ExecJitter > 0 {
		lat *= 1 + c.Opts.ExecJitter*(2*c.rng.Float64()-1)
	}
	c.Eng.After(lat, func() {
		if w.gen != gen {
			// The worker crashed while this batch was executing: the
			// results never materialize and the roots are lost. (The crash
			// already cleared the worker's telemetry in-flight state.)
			c.DropsFault += int64(len(batch))
			for _, sub := range batch {
				c.abandon(sub)
			}
			return
		}
		w.busy = false
		endT := c.Eng.Now()
		c.Opts.Telemetry.BatchEnd(endT, w.phys, len(batch))
		if c.Opts.Tracer != nil {
			for _, sub := range batch {
				if sub.root.tr != nil {
					c.Opts.Tracer.AddSpan(sub.root.tr, telemetry.Span{
						Stage:       c.g.Tasks[spec.Task].Name,
						Worker:      w.phys,
						Class:       c.Opts.Classes[w.class].Name,
						EnqueuedSec: sub.enqueued,
						StartSec:    startT,
						EndSec:      endT,
						Batch:       len(batch),
					})
				}
			}
		}
		for _, sub := range batch {
			c.completeAt(sub, w, spec)
		}
		c.tryStart(w)
	})
}

// completeAt handles one request finishing execution at a worker: record the
// variant's accuracy, emit intermediate queries to children (with sampled
// multiplicative factors), run the drop policy per branch, and detect sink
// completions.
func (c *Cluster) completeAt(sub *subrequest, w *worker, spec *core.WorkerSpec) {
	now := c.Eng.Now()
	task := &c.g.Tasks[spec.Task]
	v := &task.Variants[spec.Variant]
	acc := sub.acc * v.Accuracy

	w.hbIn++

	if task.IsSink() {
		sub.root.accSum += acc
		sub.root.accN++
	}

	table := c.tableFor(w, spec)
	totalOut := 0
	for _, child := range task.Children {
		mean := c.g.Tasks[spec.Task].Variants[spec.Variant].MultFactor * child.BranchRatio
		k := c.poisson(mean)
		totalOut += k
		for i := 0; i < k; i++ {
			c.forward(sub, spec, child.Task, table, acc, now)
		}
	}
	w.hbOut += totalOut

	sub.root.outstanding--
	if sub.root.outstanding == 0 {
		c.finish(sub.root)
	}
}

// tableFor resolves the routing table for queries leaving a worker. A batch
// captures its spec at start, so after a reconfiguration the spec's logical
// ID may be stale; prefer the worker's current table when it still serves
// the same task.
func (c *Cluster) tableFor(w *worker, spec *core.WorkerSpec) *core.WorkerTable {
	if c.routes == nil {
		return nil
	}
	if w.spec != nil && w.spec.Task == spec.Task {
		if t := c.routes.Tables[w.spec.ID]; t != nil {
			return t
		}
	}
	return c.routes.Tables[spec.ID]
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
		if w := c.logical[s.ID]; w != nil && w.spec != nil && w.spec.Task == task {
			return s.ID, true
		}
	}
	return 0, false
}

// forward routes one intermediate query to a child-task worker, applying
// the early-dropping policy.
func (c *Cluster) forward(sub *subrequest, spec *core.WorkerSpec, childTask pipeline.TaskID, table *core.WorkerTable, acc float64, now float64) {
	var entries []core.RouteEntry
	if table != nil {
		entries = table.PerChild[childTask]
	}
	target, ok := c.pick(entries)
	if !ok {
		// Stale table after a reconfiguration: fall back to any live
		// worker of the child task before giving up.
		target, ok = c.anyWorkerOf(childTask)
	}
	if !ok {
		c.DropsNoRoute++
		sub.root.dropped = true
		return
	}
	nextExec := 0.0
	if tw := c.logical[target]; tw != nil && tw.spec != nil {
		nextExec = tw.spec.LatencySec
	}

	ctx := policy.Context{
		Now:         now,
		Deadline:    sub.root.deadline,
		EnteredTask: sub.enqueued,
		Budget:      spec.BudgetSec,
		HasNext:     true,
		NextTask:    childTask,
		NextIsSink:  len(c.g.Tasks[childTask].Children) == 0,
		NextExec:    nextExec,
		NetLatency:  c.Opts.NetLatencySec,
		MinTail:     c.minTail[childTask],
		FindBackup:  c.findBackup,
	}
	d := c.Policy.OnTaskComplete(&ctx)
	if d.Drop {
		c.DropsPolicy++
		sub.root.dropped = true
		return
	}
	if d.Reroute {
		target = d.Alternate
		c.TotalRerouted++
	}
	sub.root.outstanding++
	child := &subrequest{root: sub.root, task: childTask, acc: acc}
	c.deliver(child, target)
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

// abandon drops one subrequest (queue overflow, lost worker, or no route).
func (c *Cluster) abandon(sub *subrequest) {
	sub.root.dropped = true
	sub.root.outstanding--
	if sub.root.outstanding == 0 {
		c.finish(sub.root)
	}
}

// finish closes out a root request and records its outcome.
func (c *Cluster) finish(root *rootRequest) {
	now := c.Eng.Now()
	c.inflight--
	if root.dropped {
		c.TotalDropped++
		if c.Metrics != nil {
			c.Metrics.Dropped(now, root.arrived)
		}
		c.Opts.Tracer.Finish(root.tr, now, true, false)
		return
	}
	c.TotalCompleted++
	late := now > root.deadline+1e-9
	c.Opts.Tracer.Finish(root.tr, now, false, late)
	accuracy := math.NaN()
	if root.accN > 0 {
		accuracy = root.accSum / float64(root.accN)
	}
	if c.Metrics != nil {
		c.Metrics.Completed(now, late, now-root.arrived, accuracy)
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

// poisson samples a Poisson variate (Knuth's method; means here are small).
func (c *Cluster) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
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
	now := c.Eng.Now()
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
			c.Meta.ReportMultFactor(w.spec.Task, w.spec.Variant, observed)
		}
		w.hbIn, w.hbOut = 0, 0
	}
	if c.Metrics != nil {
		c.Metrics.SampleServers(now, c.ActiveServers())
		c.Metrics.SampleClassServers(c.ActiveByClass())
	}
	c.Opts.Telemetry.Sample(now)
}
