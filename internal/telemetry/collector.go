package telemetry

import (
	"strconv"
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
}

// Collector maintains per-worker state for one tenant's pool, fed by engine
// events (enqueue, batch start/end, swap, fault, assignment) and windowed once
// per engine-clock second by Sample. The rows are the state: an event touches
// only its worker's row, and the registry folds the rows into their series
// when it is read. It is safe for concurrent use and, with reg == nil, runs
// registry-less (rows only).
type Collector struct {
	mu      sync.Mutex
	tenant  string
	workers []workerState
	now     float64 // the latest engine time an event or Sample carried

	// Exposition (nil without a registry): the series sets the rows fold
	// into, one per worker or, past the worker-metrics limit, one per class;
	// setOf maps a worker to its set.
	sets  []seriesSet
	setOf []int
}

// The folded series of one set, by position.
const (
	sQueue = iota
	sInflight
	sOccupancy
	sServedQPS
	sSpeed
	sLive
	sServed
	sBatches
	sSwaps
	nSeries
)

// seriesSet is one worker's loki_worker_* series, or one class's loki_class_*
// aggregate over its size workers.
type seriesSet struct {
	size   int
	series [nSeries]*series
}

// foldedSeries names each folded series in both exposition modes. Aggregates
// sum their workers' values, except occupancy and speed, which are means.
var foldedSeries = [nSeries]struct {
	kind               Kind
	worker, workerHelp string
	class, classHelp   string
}{
	sQueue: {KindGauge,
		"loki_worker_queue_depth", "Queued sub-requests per worker.",
		"loki_class_queue_depth", "Queued sub-requests summed over the class's workers."},
	sInflight: {KindGauge,
		"loki_worker_inflight_batch", "Size of the batch currently executing (0 when idle).",
		"loki_class_inflight_batch", "In-flight batch sizes summed over the class's workers."},
	sOccupancy: {KindGauge,
		"loki_worker_occupancy", "Fraction of the last sample window spent executing.",
		"loki_class_occupancy", "Mean occupancy over the class's workers."},
	sServedQPS: {KindGauge,
		"loki_worker_served_qps", "Sub-requests completed per second over the last sample window.",
		"loki_class_served_qps", "Served QPS summed over the class's workers."},
	sSpeed: {KindGauge,
		"loki_worker_speed_factor", "Effective speed multiplier (1 = nominal; <1 = straggler).",
		"loki_class_speed_factor", "Mean effective speed multiplier over the class's workers."},
	sLive: {KindGauge,
		"loki_worker_up", "1 while the worker is live, 0 while down.",
		"loki_class_live", "Live workers in the class."},
	sServed: {KindCounter,
		"loki_worker_served_total", "Lifetime sub-requests completed per worker.",
		"loki_class_served_total", "Lifetime sub-requests completed, summed over the class's workers."},
	sBatches: {KindCounter,
		"loki_worker_batches_total", "Lifetime batches executed per worker.",
		"loki_class_batches_total", "Lifetime batches executed, summed over the class's workers."},
	sSwaps: {KindCounter,
		"loki_worker_swaps_total", "Model swaps charged to this worker.",
		"loki_class_swaps_total", "Model swaps, summed over the class's workers."},
}

// defaultWorkerMetricsLimit is the pool size past which a collector stops
// registering per-worker series and degrades to per-class aggregates. At
// fleet scale (1,000+ workers × ~9 series each, per tenant) unbounded
// per-worker cardinality would dominate /metrics; 256 keeps the paper-scale
// testbeds fully visible while capping the fleet regime.
const defaultWorkerMetricsLimit = 256

// CollectorOption configures NewCollector.
type CollectorOption func(*collectorConfig)

type collectorConfig struct {
	workerLimit int
}

// WithWorkerMetricsLimit sets the largest pool that still gets per-worker
// registry series; bigger pools degrade to per-class aggregate series
// (loki_class_*) while Rows and Snapshot keep full per-worker detail.
// 0 means unlimited (always per-worker); the default is
// defaultWorkerMetricsLimit.
func WithWorkerMetricsLimit(n int) CollectorOption {
	return func(c *collectorConfig) { c.workerLimit = n }
}

// WorkerMetricsLimit returns the worker limit opts set: the last
// WithWorkerMetricsLimit among them, or defaultWorkerMetricsLimit.
func WorkerMetricsLimit(opts ...CollectorOption) int {
	cfg := collectorConfig{workerLimit: defaultWorkerMetricsLimit}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.workerLimit
}

// NewCollector builds a collector for a pool laid out as classes in order
// (worker indices 0..n-1 span the classes' counts, matching the engine's
// physical numbering) and registers it with reg, which folds its rows into
// their series at every read. reg may be nil to collect rows without
// exposition.
func NewCollector(reg *Registry, tenant string, classes []WorkerClass, opts ...CollectorOption) *Collector {
	limit := WorkerMetricsLimit(opts...)
	c := &Collector{tenant: tenant}
	for _, cl := range classes {
		for i := 0; i < cl.Count; i++ {
			c.workers = append(c.workers, workerState{
				row:       WorkerRow{Worker: len(c.workers), Class: cl.Name, SpeedFactor: 1, Live: true},
				busySince: -1,
			})
		}
	}
	if reg == nil {
		return c
	}
	aggregate := limit > 0 && len(c.workers) > limit
	for _, cl := range classes {
		if aggregate {
			lbl := L("tenant", tenant, "class", cl.Name)
			reg.Gauge("loki_class_workers", "Workers in this class (aggregate exposition past the worker-metrics limit).", lbl).Set(0, float64(cl.Count))
			c.addSet(reg, cl.Count, lbl, true)
		}
		for i := 0; i < cl.Count; i++ {
			if !aggregate {
				c.addSet(reg, 1, L("tenant", tenant, "class", cl.Name, "worker", strconv.Itoa(len(c.setOf))), false)
			}
			c.setOf = append(c.setOf, len(c.sets)-1)
		}
	}
	reg.mu.Lock()
	reg.collectors = append(reg.collectors, c)
	reg.mu.Unlock()
	return c
}

// addSet registers one series set labeled lbl over size workers, under the
// class names when class is set.
func (c *Collector) addSet(reg *Registry, size int, lbl Labels, class bool) {
	set := seriesSet{size: size}
	for k, f := range foldedSeries {
		name, help := f.worker, f.workerHelp
		if class {
			name, help = f.class, f.classHelp
		}
		set.series[k] = reg.lookup(name, help, f.kind, nil, lbl)
	}
	c.sets = append(c.sets, set)
}

// fold writes the rows into their series sets, holding the collector's lock
// and then the registry's. The registry calls it before every read.
func (c *Collector) fold(r *Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range c.sets {
		for _, s := range c.sets[i].series {
			s.value = 0
		}
	}
	for i := range c.workers {
		row := &c.workers[i].row
		live := 0.0
		if row.Live {
			live = 1
		}
		vals := [nSeries]float64{
			sQueue:     float64(row.QueueDepth),
			sInflight:  float64(row.InFlightBatch),
			sOccupancy: row.Occupancy,
			sServedQPS: row.ServedQPS,
			sSpeed:     row.SpeedFactor,
			sLive:      live,
			sServed:    float64(row.ServedTotal),
			sBatches:   float64(row.BatchesTotal),
			sSwaps:     float64(row.SwapsTotal),
		}
		set := &c.sets[c.setOf[i]]
		for k, v := range vals {
			set.series[k].value += v
		}
	}
	for i := range c.sets {
		set := &c.sets[i]
		if set.size > 0 {
			set.series[sOccupancy].value /= float64(set.size)
			set.series[sSpeed].value /= float64(set.size)
		}
		for _, s := range set.series {
			s.atSec = c.now
		}
	}
}

// at advances the collector's clock to now and bounds-checks a worker index;
// events for unknown workers are dropped rather than panicking inside an
// engine's hot path. The caller holds c.mu.
func (c *Collector) at(now float64, worker int) *workerState {
	c.now = max(c.now, now)
	if worker < 0 || worker >= len(c.workers) {
		return nil
	}
	return &c.workers[worker]
}

// Enqueue records that one sub-request joined a worker's queue.
func (c *Collector) Enqueue(now float64, worker int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(now, worker); ws != nil {
		ws.row.QueueDepth++
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
	if ws := c.at(now, worker); ws != nil {
		ws.row.QueueDepth = max(ws.row.QueueDepth-batch, 0)
		ws.row.InFlightBatch = batch
		ws.busySince = now
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
	if ws := c.at(now, worker); ws != nil {
		if ws.busySince >= 0 {
			ws.busyAccum += now - ws.busySince
			ws.busySince = -1
		}
		ws.row.InFlightBatch = 0
		ws.row.BatchesTotal++
		ws.row.ServedTotal += int64(served)
		ws.servedWin += int64(served)
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
	if ws := c.at(now, worker); ws != nil {
		ws.row.QueueDepth = 0
	}
	c.mu.Unlock()
}

// Swap records a model swap charged to the worker.
func (c *Collector) Swap(now float64, worker int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if ws := c.at(now, worker); ws != nil {
		ws.row.SwapsTotal++
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
	if ws := c.at(now, worker); ws != nil {
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
	if ws := c.at(now, worker); ws != nil {
		ws.row.SpeedFactor = factor
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
	if ws := c.at(now, worker); ws != nil {
		ws.row.Live = !down
		if down {
			ws.row.Assigned = ""
			ws.row.QueueDepth = 0
			ws.row.InFlightBatch = 0
			ws.busySince = -1
		}
	}
	c.mu.Unlock()
}

// Sample closes the current window at engine time now: occupancy and served
// QPS are computed over [lastSample, now] into the rows, then the window
// resets. Engines call this from their once-per-second housekeeping
// alongside the existing metrics sampling.
func (c *Collector) Sample(now float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.now = max(c.now, now)
	for i := range c.workers {
		ws := &c.workers[i]
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
	for i := range c.workers {
		out[i] = c.workers[i].row
	}
	return out
}
