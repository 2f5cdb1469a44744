package core

import (
	"cmp"
	"math"
	"slices"

	"loki/internal/pipeline"
)

// WorkerID identifies one worker (one hosted model-variant replica).
type WorkerID int

// WorkerSpec describes the configuration a worker must host: which variant
// of which task, the maximum batch size, and the profiled characteristics
// the Load Balancer and drop policies need at routing time.
type WorkerSpec struct {
	ID       WorkerID
	Task     pipeline.TaskID
	Variant  int
	MaxBatch int
	// Class is the hardware class this replica must be hosted on (index into
	// the cluster's class set, with ClassName its registered name); the
	// engines place the spec on a physical worker of that class and swap
	// models only within it. QPS and LatencySec are profiled on the class,
	// so the Load Balancer's capacity fill weights routes by class-specific
	// service rate for free.
	Class      int
	ClassName  string
	QPS        float64
	LatencySec float64
	Accuracy   float64
	BudgetSec  float64
}

// QueueCap bounds a worker's queue at factor × QPS × SLO requests, and at
// least two full batches; a request beyond it is hopeless and dropped at
// enqueue.
func (s *WorkerSpec) QueueCap(factor, sloSec float64) int {
	return max(int(math.Ceil(factor*s.QPS*sloSec)), 2*s.MaxBatch)
}

// ExpandPlan flattens a plan into one WorkerSpec per replica, assigning
// dense worker IDs.
func ExpandPlan(plan *Plan) []WorkerSpec {
	n := 0
	for _, a := range plan.Assignments {
		n += max(a.Replicas, 0)
	}
	if n == 0 {
		return nil
	}
	specs := make([]WorkerSpec, 0, n)
	for _, a := range plan.Assignments {
		for r := 0; r < a.Replicas; r++ {
			specs = append(specs, WorkerSpec{
				ID:         WorkerID(len(specs)),
				Task:       a.Task,
				Variant:    a.Variant,
				MaxBatch:   a.MaxBatch,
				Class:      a.Class,
				ClassName:  a.ClassName,
				QPS:        a.QPS,
				LatencySec: a.LatencySec,
				Accuracy:   a.Accuracy,
				BudgetSec:  a.BudgetSec,
			})
		}
	}
	return specs
}

// RouteEntry is one row of a routing table: forward with probability Prob to
// Worker.
type RouteEntry struct {
	Worker WorkerID
	Prob   float64
}

// WorkerTable is the routing table pushed to one worker: for every child
// task, where to forward the intermediate queries this worker emits.
type WorkerTable struct {
	PerChild map[pipeline.TaskID][]RouteEntry
}

// BackupEntry lists a downstream worker with leftover capacity, used by
// opportunistic rerouting (§5.2): a straggler can be redirected to a backup
// worker whose profiled execution time fits its remaining budget.
type BackupEntry struct {
	Worker   WorkerID
	Leftover float64 // unallocated QPS
	ExecSec  float64 // profiled batch execution time
	Accuracy float64
}

// Routes is the complete output of one Load Balancer run.
type Routes struct {
	Specs    []WorkerSpec
	Frontend []RouteEntry                      // demand entry points (root-task workers)
	Tables   map[WorkerID]*WorkerTable         // per-worker forwarding tables
	Backup   map[pipeline.TaskID][]BackupEntry // leftover capacity per task
}

// MostAccurateFirst implements Algorithm 1: walk the pipeline graph in
// topological order, assign each task's incoming demand to its workers in
// non-increasing order of single-model accuracy, compute each worker's
// outgoing demand through its variant's multiplicative factor and the edge
// branch ratios, and fill the children the same way. Because the end-to-end
// accuracy is monotone in single-model accuracies, saturating the most
// accurate workers first maximizes end-to-end pipeline accuracy for the
// demand being routed (§5.1).
//
// multFactor returns the current estimate of a variant's multiplicative
// factor (typically MetadataStore.MultFactor, which folds in heartbeat
// observations). Demand beyond total capacity is spread over a task's
// workers proportionally to capacity — queues absorb it and the drop
// policies decide its fate at runtime.
func MostAccurateFirst(g *pipeline.Graph, specs []WorkerSpec, demand float64,
	multFactor func(pipeline.TaskID, int) float64) *Routes {

	type state struct {
		spec     *WorkerSpec
		incoming float64
		capacity float64 // remaining unallocated QPS
	}
	// One slab of worker states, sorted by task and, within a task, most
	// accurate first (then fastest, then lowest ID: a total order);
	// byTask[t] is task t's run of it.
	states := make([]state, len(specs))
	for i := range specs {
		states[i] = state{spec: &specs[i], capacity: specs[i].QPS}
	}
	slices.SortFunc(states, func(x, y state) int {
		a, b := x.spec, y.spec
		switch {
		case a.Task != b.Task:
			return cmp.Compare(a.Task, b.Task)
		case a.Accuracy != b.Accuracy:
			return cmp.Compare(b.Accuracy, a.Accuracy)
		case a.QPS != b.QPS:
			return cmp.Compare(b.QPS, a.QPS)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	byTask := make([][]state, len(g.Tasks))
	for lo := 0; lo < len(states); {
		task := states[lo].spec.Task
		hi := lo + 1
		for hi < len(states) && states[hi].spec.Task == task {
			hi++
		}
		byTask[task] = states[lo:hi:hi]
		lo = hi
	}

	routes := &Routes{
		Specs:  specs,
		Tables: make(map[WorkerID]*WorkerTable, len(specs)),
		Backup: make(map[pipeline.TaskID][]BackupEntry),
	}
	tables := make([]WorkerTable, len(specs))
	for i := range specs {
		tables[i].PerChild = make(map[pipeline.TaskID][]RouteEntry, len(g.Tasks[specs[i].Task].Children))
		routes.Tables[specs[i].ID] = &tables[i]
	}

	// fill assigns `amount` of demand to the task's workers most accurate
	// first, returning the route entries with probabilities relative to
	// `amount`. A task's workers are distinct, so no worker appears twice.
	// The entries of every fill share one slab, each capped to its own run.
	slab := make([]RouteEntry, 0, 2*len(specs))
	fill := func(task pipeline.TaskID, amount float64) []RouteEntry {
		ws := byTask[task]
		if len(ws) == 0 {
			return nil
		}
		if amount <= 0 {
			// No measurable demand: send everything to the most accurate
			// worker so stray requests still have a route.
			ws[0].incoming += amount
			return []RouteEntry{{Worker: ws[0].spec.ID, Prob: 1}}
		}
		start := len(slab)
		remaining := amount
		for i := range ws {
			w := &ws[i]
			if remaining <= 1e-12 {
				break
			}
			if w.capacity <= 1e-12 {
				continue
			}
			routed := remaining
			if w.capacity < routed {
				routed = w.capacity
			}
			w.capacity -= routed
			w.incoming += routed
			remaining -= routed
			slab = append(slab, RouteEntry{Worker: w.spec.ID, Prob: routed / amount})
		}
		// Overload: probabilities sum below 1 and the remainder is left
		// unrouted. The unroutable share is shed at the routing point
		// (frontend admission control / forwarding drop) instead of being
		// spread over already-full queues, which would push every queued
		// request past its deadline and turn a capacity shortfall into a
		// total outage.
		if len(slab) == start {
			return nil
		}
		return slab[start:len(slab):len(slab)]
	}

	routes.Frontend = fill(0, demand)

	for _, task := range g.TopoOrder() {
		t := &g.Tasks[task]
		for _, w := range byTask[task] {
			for _, child := range t.Children {
				out := w.incoming * multFactor(task, w.spec.Variant) * child.BranchRatio
				routes.Tables[w.spec.ID].PerChild[child.Task] = fill(child.Task, out)
			}
		}
	}

	// Backup tables: workers with leftover capacity, most accurate first,
	// each task's run in one slab.
	backup := make([]BackupEntry, 0, len(specs))
	for task := range g.Tasks {
		start := len(backup)
		for _, w := range byTask[task] {
			if w.capacity > 1e-9 {
				backup = append(backup, BackupEntry{
					Worker:   w.spec.ID,
					Leftover: w.capacity,
					ExecSec:  w.spec.LatencySec,
					Accuracy: w.spec.Accuracy,
				})
			}
		}
		b := backup[start:len(backup):len(backup)]
		// Not a total order: the replicas of one config tie, and the routes
		// keep the order pdqsort leaves them in under this comparison.
		slices.SortFunc(b, func(x, y BackupEntry) int {
			switch {
			case x.Accuracy > y.Accuracy:
				return -1
			case x.Accuracy != y.Accuracy:
				return 1
			case x.ExecSec < y.ExecSec:
				return -1
			case x.ExecSec > y.ExecSec:
				return 1
			}
			return 0
		})
		if len(b) > 0 {
			routes.Backup[pipeline.TaskID(task)] = b
		}
	}
	return routes
}
