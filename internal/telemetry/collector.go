package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// WorkerClass names a hardware class and how many physical workers it holds,
// in pool order. It mirrors profiles.Class without importing it so the
// telemetry plane stays dependency-free.
type WorkerClass struct {
	Name  string
	Count int
}

// WorkerRow is one worker's current view as maintained by the Collector:
// the per-replica signals a saturation analyzer reads between planning
// rounds, and what Snapshot.Workers exposes publicly.
type WorkerRow struct {
	// Worker is the physical worker index within the pool; Class its
	// hardware class name.
	Worker int
	Class  string
	// Assigned is the task/variant currently loaded ("" when unassigned).
	Assigned string
	// QueueDepth is the number of queued sub-requests; InFlightBatch the
	// size of the batch currently executing (0 when idle).
	QueueDepth    int
	InFlightBatch int
	// Occupancy is the fraction of the last sample window the worker spent
	// executing batches; ServedQPS the sub-requests completed per second
	// over that window.
	Occupancy float64
	ServedQPS float64
	// SpeedFactor is the effective speed multiplier (1 = nominal; a 0.25
	// straggler runs at quarter speed while still reporting Live).
	SpeedFactor float64
	// Live is false while the worker is crashed/down.
	Live bool
	// ServedTotal and BatchesTotal are lifetime counters; SwapsTotal counts
	// model swaps charged to this worker.
	ServedTotal  int64
	BatchesTotal int64
	SwapsTotal   int64
}

// workerState is the collector's internal mutable mirror of one worker.
type workerState struct {
	row WorkerRow

	busySince  float64 // engine time current batch started (-1 when idle)
	busyAccum  float64 // busy seconds accumulated inside the current window
	servedWin  int64   // sub-requests completed inside the current window
	lastSample float64 // engine time of the previous Sample call

	// registry handles (all nil when the collector runs registry-less)
	gQueue, gInflight, gOcc, gQPS, gSpeed, gUp *Gauge
	cServed, cBatches, cSwaps                  *Counter
}

// Collector maintains per-worker state for one tenant's pool, fed by engine
// events (enqueue, batch start/end, swap, fault, assignment) and sampled
// once per engine-clock second into registry gauges. It is safe for
// concurrent use and, with reg == nil, runs registry-less (rows only).
type Collector struct {
	mu      sync.Mutex
	tenant  string
	workers []*workerState

	// Aggregate exposition (pools past the worker-metrics limit): classOf
	// maps worker index to its classAgg entry; nil aggs means full
	// per-worker series.
	classOf []int
	aggs    []*classAgg
}

// classAgg is one hardware class's aggregate registry series, used instead of
// per-worker series when the pool exceeds the worker-metrics limit.
type classAgg struct {
	count                       int
	gWorkers, gQueue, gInflight *Gauge
	gOcc, gQPS, gSpeed, gLive   *Gauge
	cServed, cBatches, cSwaps   *Counter
}

// DefaultWorkerMetricsLimit is the pool size past which a collector stops
// registering per-worker series and degrades to per-class aggregates. At
// fleet scale (1,000+ workers × ~9 series each, per tenant) unbounded
// per-worker cardinality would dominate /metrics; 256 keeps the paper-scale
// testbeds fully visible while capping the fleet regime.
const DefaultWorkerMetricsLimit = 256

// CollectorOption configures NewCollector.
type CollectorOption func(*collectorConfig)

type collectorConfig struct {
	workerLimit int
}

// WithWorkerMetricsLimit sets the largest pool that still gets per-worker
// registry series; bigger pools degrade to per-class aggregate series
// (loki_class_*) while Rows and Snapshot keep full per-worker detail.
// 0 means unlimited (always per-worker); the default is
// DefaultWorkerMetricsLimit.
func WithWorkerMetricsLimit(n int) CollectorOption {
	return func(c *collectorConfig) { c.workerLimit = n }
}

// NewCollector builds a collector for a pool laid out as classes in order
// (worker indices 0..n-1 span the classes' counts, matching both engines'
// physical numbering). reg may be nil to collect rows without exposition.
func NewCollector(reg *Registry, tenant string, classes []WorkerClass, opts ...CollectorOption) *Collector {
	cfg := collectorConfig{workerLimit: DefaultWorkerMetricsLimit}
	for _, o := range opts {
		o(&cfg)
	}
	total := 0
	for _, cl := range classes {
		total += cl.Count
	}
	aggregate := reg != nil && cfg.workerLimit > 0 && total > cfg.workerLimit

	c := &Collector{tenant: tenant}
	phys := 0
	for _, cl := range classes {
		var ag *classAgg
		if aggregate {
			lbl := L("tenant", tenant, "class", cl.Name)
			ag = &classAgg{
				count:     cl.Count,
				gWorkers:  reg.Gauge("loki_class_workers", "Workers in this class (aggregate exposition past the worker-metrics limit).", lbl),
				gQueue:    reg.Gauge("loki_class_queue_depth", "Queued sub-requests summed over the class's workers.", lbl),
				gInflight: reg.Gauge("loki_class_inflight_batch", "In-flight batch sizes summed over the class's workers.", lbl),
				gOcc:      reg.Gauge("loki_class_occupancy", "Mean occupancy over the class's workers.", lbl),
				gQPS:      reg.Gauge("loki_class_served_qps", "Served QPS summed over the class's workers.", lbl),
				gSpeed:    reg.Gauge("loki_class_speed_factor", "Mean effective speed multiplier over the class's workers.", lbl),
				gLive:     reg.Gauge("loki_class_live", "Live workers in the class.", lbl),
				cServed:   reg.Counter("loki_class_served_total", "Lifetime sub-requests completed, summed over the class's workers.", lbl),
				cBatches:  reg.Counter("loki_class_batches_total", "Lifetime batches executed, summed over the class's workers.", lbl),
				cSwaps:    reg.Counter("loki_class_swaps_total", "Model swaps, summed over the class's workers.", lbl),
			}
			ag.gWorkers.Set(0, float64(cl.Count))
			ag.gSpeed.Set(0, 1)
			ag.gLive.Set(0, float64(cl.Count))
			c.aggs = append(c.aggs, ag)
		}
		for i := 0; i < cl.Count; i++ {
			ws := &workerState{
				row:       WorkerRow{Worker: phys, Class: cl.Name, SpeedFactor: 1, Live: true},
				busySince: -1,
			}
			switch {
			case aggregate:
				// Counters are exact: every worker in the class shares the
				// class series, so event-time increments accumulate there.
				// Gauges stay nil (no-op on events) and are folded from the
				// rows once per Sample instead.
				ws.cServed = ag.cServed
				ws.cBatches = ag.cBatches
				ws.cSwaps = ag.cSwaps
				c.classOf = append(c.classOf, len(c.aggs)-1)
			case reg != nil:
				lbl := L("tenant", tenant, "class", cl.Name, "worker", strconv.Itoa(phys))
				ws.gQueue = reg.Gauge("loki_worker_queue_depth", "Queued sub-requests per worker.", lbl)
				ws.gInflight = reg.Gauge("loki_worker_inflight_batch", "Size of the batch currently executing (0 when idle).", lbl)
				ws.gOcc = reg.Gauge("loki_worker_occupancy", "Fraction of the last sample window spent executing.", lbl)
				ws.gQPS = reg.Gauge("loki_worker_served_qps", "Sub-requests completed per second over the last sample window.", lbl)
				ws.gSpeed = reg.Gauge("loki_worker_speed_factor", "Effective speed multiplier (1 = nominal; <1 = straggler).", lbl)
				ws.gUp = reg.Gauge("loki_worker_up", "1 while the worker is live, 0 while down.", lbl)
				ws.cServed = reg.Counter("loki_worker_served_total", "Lifetime sub-requests completed per worker.", lbl)
				ws.cBatches = reg.Counter("loki_worker_batches_total", "Lifetime batches executed per worker.", lbl)
				ws.cSwaps = reg.Counter("loki_worker_swaps_total", "Model swaps charged to this worker.", lbl)
				ws.gSpeed.Set(0, 1)
				ws.gUp.Set(0, 1)
			}
			c.workers = append(c.workers, ws)
			phys++
		}
	}
	return c
}

// at bounds-checks a worker index; events for unknown workers are dropped
// rather than panicking inside an engine's hot path.
func (c *Collector) at(worker int) *workerState {
	if c == nil || worker < 0 || worker >= len(c.workers) {
		return nil
	}
	return c.workers[worker]
}

// Enqueue records that one sub-request joined a worker's queue.
func (c *Collector) Enqueue(now float64, worker int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(worker); ws != nil {
		ws.row.QueueDepth++
		ws.gQueue.Set(now, float64(ws.row.QueueDepth))
	}
	c.mu.Unlock()
}

// BatchStart records that a worker pulled `batch` sub-requests off its queue
// and began executing them as one batch.
func (c *Collector) BatchStart(now float64, worker, batch int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(worker); ws != nil {
		ws.row.QueueDepth -= batch
		if ws.row.QueueDepth < 0 {
			ws.row.QueueDepth = 0
		}
		ws.row.InFlightBatch = batch
		ws.busySince = now
		ws.gQueue.Set(now, float64(ws.row.QueueDepth))
		ws.gInflight.Set(now, float64(batch))
	}
	c.mu.Unlock()
}

// BatchEnd records a batch finishing. served is the number of sub-requests
// actually completed (0 when the batch was invalidated by a crash).
func (c *Collector) BatchEnd(now float64, worker, served int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(worker); ws != nil {
		if ws.busySince >= 0 {
			ws.busyAccum += now - ws.busySince
			ws.busySince = -1
		}
		ws.row.InFlightBatch = 0
		ws.row.BatchesTotal++
		ws.row.ServedTotal += int64(served)
		ws.servedWin += int64(served)
		ws.gInflight.Set(now, 0)
		ws.cBatches.Add(now, 1)
		ws.cServed.Add(now, float64(served))
	}
	c.mu.Unlock()
}

// QueueCleared records a worker's queue being abandoned (reassignment or
// crash): n sub-requests left the queue without executing.
func (c *Collector) QueueCleared(now float64, worker int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(worker); ws != nil {
		ws.row.QueueDepth = 0
		ws.gQueue.Set(now, 0)
	}
	c.mu.Unlock()
}

// Swap records a model swap charged to the worker.
func (c *Collector) Swap(now float64, worker int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(worker); ws != nil {
		ws.row.SwapsTotal++
		ws.cSwaps.Add(now, 1)
	}
	c.mu.Unlock()
}

// SetAssigned records the task/variant a worker currently serves ("" when
// the worker is unassigned by the plan).
func (c *Collector) SetAssigned(now float64, worker int, assigned string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(worker); ws != nil {
		ws.row.Assigned = assigned
	}
	c.mu.Unlock()
}

// SetSpeed records a worker's effective speed factor (fault injection's
// straggler path; 1 restores nominal speed).
func (c *Collector) SetSpeed(now float64, worker int, factor float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(worker); ws != nil {
		ws.row.SpeedFactor = factor
		ws.gSpeed.Set(now, factor)
	}
	c.mu.Unlock()
}

// SetDown records a worker going down (true) or recovering (false). Going
// down also clears assignment, queue and in-flight state, mirroring the
// engines (which do not revisit the worker at the next publish).
func (c *Collector) SetDown(now float64, worker int, down bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(worker); ws != nil {
		ws.row.Live = !down
		up := 1.0
		if down {
			up = 0
			ws.row.Assigned = ""
			ws.row.QueueDepth = 0
			ws.row.InFlightBatch = 0
			ws.busySince = -1
			ws.gQueue.Set(now, 0)
			ws.gInflight.Set(now, 0)
		}
		ws.gUp.Set(now, up)
	}
	c.mu.Unlock()
}

// Sample closes the current window at engine time now: occupancy and served
// QPS are computed over [lastSample, now] and published to the registry,
// then the window resets. Engines call this from their once-per-second
// housekeeping alongside the existing metrics sampling.
func (c *Collector) Sample(now float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for _, ws := range c.workers {
		win := now - ws.lastSample
		busy := ws.busyAccum
		if ws.busySince >= 0 { // batch still running: charge the elapsed part
			busy += now - ws.busySince
			ws.busySince = now
		}
		occ, qps := 0.0, 0.0
		if win > 0 {
			occ = busy / win
			if occ > 1 {
				occ = 1
			}
			qps = float64(ws.servedWin) / win
		}
		ws.row.Occupancy = occ
		ws.row.ServedQPS = qps
		ws.busyAccum = 0
		ws.servedWin = 0
		ws.lastSample = now
		ws.gOcc.Set(now, occ)
		ws.gQPS.Set(now, qps)
	}
	if c.aggs != nil {
		// Aggregate exposition: fold the per-worker rows into one series set
		// per class. Queue/in-flight/liveness gauges refresh here (once per
		// sample) instead of per event — the cardinality trade the
		// worker-metrics limit buys.
		type fold struct {
			queue, inflight, live int
			occ, qps, speed       float64
		}
		folds := make([]fold, len(c.aggs))
		for i, ws := range c.workers {
			f := &folds[c.classOf[i]]
			f.queue += ws.row.QueueDepth
			f.inflight += ws.row.InFlightBatch
			if ws.row.Live {
				f.live++
			}
			f.occ += ws.row.Occupancy
			f.qps += ws.row.ServedQPS
			f.speed += ws.row.SpeedFactor
		}
		for i, ag := range c.aggs {
			f := folds[i]
			ag.gQueue.Set(now, float64(f.queue))
			ag.gInflight.Set(now, float64(f.inflight))
			ag.gLive.Set(now, float64(f.live))
			ag.gQPS.Set(now, f.qps)
			if ag.count > 0 {
				ag.gOcc.Set(now, f.occ/float64(ag.count))
				ag.gSpeed.Set(now, f.speed/float64(ag.count))
			}
		}
	}
	c.mu.Unlock()
}

// Rows returns a copy of every worker's current row, in worker order.
func (c *Collector) Rows() []WorkerRow {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerRow, len(c.workers))
	for i, ws := range c.workers {
		out[i] = ws.row
	}
	return out
}

// Snapshot renders the collector's full state as a deterministic multi-line
// string, one worker per line — the unit the determinism test compares
// byte-for-byte across identically-seeded runs.
func (c *Collector) Snapshot() string {
	if c == nil {
		return ""
	}
	rows := c.Rows()
	var b strings.Builder
	fmt.Fprintf(&b, "tenant=%s workers=%d\n", c.tenant, len(rows))
	for _, r := range rows {
		fmt.Fprintf(&b, "w%d class=%s assigned=%q q=%d inflight=%d occ=%s qps=%s speed=%s live=%t served=%d batches=%d swaps=%d\n",
			r.Worker, r.Class, r.Assigned, r.QueueDepth, r.InFlightBatch,
			fmtFloat(r.Occupancy), fmtFloat(r.ServedQPS), fmtFloat(r.SpeedFactor),
			r.Live, r.ServedTotal, r.BatchesTotal, r.SwapsTotal)
	}
	return b.String()
}

// SortRows orders worker rows by worker index — a helper for consumers that
// merge rows from several collectors.
func SortRows(rows []WorkerRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Worker < rows[j].Worker })
}
