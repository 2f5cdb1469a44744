package core

import (
	"math"
	"sync"

	"loki/internal/forecast"
	"loki/internal/pipeline"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// MetadataStore holds everything the Resource Manager and Load Balancer
// consult (§3): the pipeline graph, per-variant performance profiles, the
// latency SLO, recent demand (smoothed), and the multiplicative factors
// observed by workers and reported through heartbeats. It is safe for
// concurrent use — the live (wall-clock) engine shares it across goroutines.
type MetadataStore struct {
	mu sync.RWMutex

	graph     *pipeline.Graph
	classes   []profiles.Class       // the cluster's hardware classes
	classProf [][][]profiles.Profile // [class][task][variant]
	sloSec    float64
	batches   []int

	demand trace.EWMA // smoothed incoming demand estimate

	// fc, when non-nil, predicts near-future demand for the proactive
	// control plane. It is fed the smoothed estimate after every
	// observation, so a persistence (Last) forecaster reproduces the
	// reactive estimator bit for bit.
	fc forecast.Forecaster

	// lastObs is the most recent raw per-second demand sample, stamped at
	// engine time lastObsT.
	lastObs  float64
	lastObsT float64

	// multFactors[task][variant] is an EWMA of the multiplicative factor
	// workers observed while serving that variant; it starts at the
	// profiled value and is refined by heartbeats (§4.2).
	multFactors [][]trace.EWMA
}

// NewMetadataStore registers a pipeline, its profiles, and the latency SLO —
// the initial-setup step of §3. The cluster is treated as one homogeneous
// "default" hardware class whose size the Resource Manager supplies
// (AllocatorOptions.Servers); heterogeneous fleets register through
// NewMetadataStoreHetero.
func NewMetadataStore(g *pipeline.Graph, prof [][]profiles.Profile, sloSec float64, batches []int) *MetadataStore {
	return NewMetadataStoreHetero(g,
		[]profiles.Class{{Name: profiles.DefaultClassName, Speed: 1.0}},
		[][][]profiles.Profile{prof}, sloSec, batches)
}

// NewMetadataStoreHetero registers a pipeline with per-class performance
// profiles (classProf indexed [class][task][variant], aligned with classes).
// A single class named "default" with Count 0 defers the cluster size to
// AllocatorOptions.Servers — the homogeneous compatibility path.
func NewMetadataStoreHetero(g *pipeline.Graph, classes []profiles.Class, classProf [][][]profiles.Profile, sloSec float64, batches []int) *MetadataStore {
	m := &MetadataStore{
		graph:     g,
		classes:   append([]profiles.Class(nil), classes...),
		classProf: classProf,
		sloSec:    sloSec,
		batches:   append([]int(nil), batches...),
	}
	m.demand = trace.EWMA{Alpha: 0.35}
	m.multFactors = make([][]trace.EWMA, len(g.Tasks))
	for i := range g.Tasks {
		m.multFactors[i] = make([]trace.EWMA, len(g.Tasks[i].Variants))
		for k := range m.multFactors[i] {
			m.multFactors[i][k] = trace.EWMA{Alpha: 0.2}
			m.multFactors[i][k].Observe(g.Tasks[i].Variants[k].MultFactor)
		}
	}
	return m
}

// Graph returns the registered pipeline graph.
func (m *MetadataStore) Graph() *pipeline.Graph { return m.graph }

// Profiles returns the reference class's profiled performance tables (class
// 0 — on a homogeneous cluster, the only tables there are).
func (m *MetadataStore) Profiles() [][]profiles.Profile { return m.classProf[0] }

// ClassProfiles returns the per-class performance tables, indexed
// [class][task][variant] and aligned with Classes.
func (m *MetadataStore) ClassProfiles() [][][]profiles.Profile { return m.classProf }

// Classes returns the cluster's hardware classes. The homogeneous
// compatibility path registers one "default" class whose Count of 0 defers
// the cluster size to AllocatorOptions.Servers.
func (m *MetadataStore) Classes() []profiles.Class { return m.classes }

// SLO returns the end-to-end latency SLO in seconds.
func (m *MetadataStore) SLO() float64 { return m.sloSec }

// Batches returns the allowed batch sizes.
func (m *MetadataStore) Batches() []int { return m.batches }

// SetForecaster installs the demand forecaster PredictedDemand consults.
// The store feeds it the smoothed estimate after every observation, so a
// forecast.Last forecaster reproduces the reactive estimator exactly and
// "forecasting off" (nil, the default) and "identity forecaster" are
// indistinguishable. Install before serving starts; the store serializes
// all forecaster access under its own lock.
func (m *MetadataStore) SetForecaster(f forecast.Forecaster) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fc = f
}

// ObserveDemand folds a demand measurement (QPS over the last reporting
// interval, as recorded by the Frontend) into the EWMA estimate. Callers
// with no clock of their own (pre-serving warm-up) get a synthetic
// one-second spacing; engines report through ObserveDemandAt.
func (m *MetadataStore) ObserveDemand(qps float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observeLocked(m.lastObsT+1, qps)
}

// ObserveDemandAt is ObserveDemand stamped with the engine time of the
// measurement, which the forecaster needs to convert planning horizons into
// sample steps.
func (m *MetadataStore) ObserveDemandAt(t, qps float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observeLocked(t, qps)
}

func (m *MetadataStore) observeLocked(t, qps float64) {
	m.demand.Observe(qps)
	m.lastObs = qps
	m.lastObsT = t
	if m.fc != nil {
		m.fc.Observe(t, m.demand.Value())
	}
}

// DemandEstimate returns the smoothed demand estimate.
func (m *MetadataStore) DemandEstimate() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.demand.Value()
}

// PredictedDemand returns the forecaster's demand prediction horizonSec
// seconds ahead. Without a forecaster it returns the smoothed estimate — the
// reactive control plane is the degenerate forecast. The write lock is
// deliberate: forecaster implementations are documented as not safe for
// concurrent use, and that contract permits a Predict that mutates model
// state (memoization, lazy refits), so Predict may never run concurrently
// with itself or Observe.
func (m *MetadataStore) PredictedDemand(horizonSec float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fc == nil {
		return m.demand.Value()
	}
	p := m.fc.Predict(horizonSec)
	if math.IsNaN(p) || p < 0 {
		return 0
	}
	return p
}

// LastObservedDemand returns the most recent raw per-second demand sample
// (zero before any observation) — the "observed" half of the serving CLIs'
// predicted-vs-observed status line.
func (m *MetadataStore) LastObservedDemand() float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lastObs
}

// ReportMultFactor records a worker-observed multiplicative factor for a
// variant (delivered via heartbeat messages).
func (m *MetadataStore) ReportMultFactor(task pipeline.TaskID, variant int, observed float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.multFactors[task][variant].Observe(observed)
}

// MultFactor returns the current estimate of a variant's multiplicative
// factor.
func (m *MetadataStore) MultFactor(task pipeline.TaskID, variant int) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.multFactors[task][variant].Value()
}
