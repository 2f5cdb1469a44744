package telemetry

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Span is one stage of a sampled request's journey: the wait in a worker's
// batch queue plus the batched execution that served it.
type Span struct {
	// Stage is the pipeline task name; Worker/Class identify where it ran.
	Stage  string `json:"stage"`
	Worker int    `json:"worker"`
	Class  string `json:"class"`
	// EnqueuedSec/StartSec/EndSec are engine-clock times: when the
	// sub-request joined the worker queue, when its batch started executing,
	// and when the batch completed. QueueSec and ExecSec are the derived
	// waits (queue = start-enqueued, exec = end-start).
	EnqueuedSec float64 `json:"enqueued_sec"`
	StartSec    float64 `json:"start_sec"`
	EndSec      float64 `json:"end_sec"`
	QueueSec    float64 `json:"queue_sec"`
	ExecSec     float64 `json:"exec_sec"`
	// Batch is the size of the batch this sub-request rode in.
	Batch int `json:"batch"`
}

// ReqTrace is the span tree of one sampled request, from admission to reply.
type ReqTrace struct {
	// ID is the engine's root request id; Tenant the pipeline it belongs to.
	ID     int64  `json:"id"`
	Tenant string `json:"tenant"`
	// ArrivedSec/DoneSec bracket the request on the engine clock; TotalSec
	// is the end-to-end latency (0 while in flight).
	ArrivedSec float64 `json:"arrived_sec"`
	DoneSec    float64 `json:"done_sec"`
	TotalSec   float64 `json:"total_sec"`
	// Dropped marks requests that never completed (shed, stale, fault);
	// Late marks completions past the SLO deadline.
	Dropped bool `json:"dropped"`
	Late    bool `json:"late"`
	// Spans are the stage executions in completion order. All mutation
	// happens under the owning Tracer's lock — ReqTrace itself carries no
	// mutex so copies of finished traces are plain values.
	Spans []Span `json:"spans"`
}

// StageStat is the latency breakdown for one pipeline stage across all
// sampled requests: queue wait and execution percentiles in seconds.
type StageStat struct {
	Stage      string  `json:"stage"`
	Count      int     `json:"count"`
	QueueP50   float64 `json:"queue_p50_sec"`
	QueueP99   float64 `json:"queue_p99_sec"`
	ExecP50    float64 `json:"exec_p50_sec"`
	ExecP99    float64 `json:"exec_p99_sec"`
	MeanBatch  float64 `json:"mean_batch"`
	WorstTotal float64 `json:"worst_total_sec"`
}

const (
	// maxTraces bounds retained span trees (first-N policy: deterministic
	// and cheap); maxStageSamples bounds the per-stage latency reservoirs
	// feeding StageSummary.
	maxTraces       = 512
	maxStageSamples = 4096
)

// stageAgg accumulates queue/exec samples for one stage.
type stageAgg struct {
	queue, exec []float64
	batchSum    float64
	batchN      int
	worst       float64
	count       int
}

// Tracer samples requests at a fixed probability using its own RNG — never
// the engines' streams, so enabling tracing cannot perturb seeded arrival or
// jitter sequences. On the simulator Start is called in deterministic event
// order, making the sampled set (and therefore the exported JSON)
// byte-reproducible for a given seed. A nil *Tracer is a valid "tracing
// off" value: every method is a no-op.
type Tracer struct {
	mu     sync.Mutex
	tenant string
	prob   float64
	rng    *rand.Rand
	traces []*ReqTrace
	stages map[string]*stageAgg
}

// NewTracer builds a tracer for one tenant sampling at probability prob
// (clamped to [0,1]); seed drives the private sampling RNG. prob <= 0
// returns nil — tracing off.
func NewTracer(tenant string, prob float64, seed int64) *Tracer {
	if prob <= 0 {
		return nil
	}
	if prob > 1 {
		prob = 1
	}
	return &Tracer{
		tenant: tenant,
		prob:   prob,
		rng:    rand.New(rand.NewSource(seed)),
		stages: map[string]*stageAgg{},
	}
}

// Start draws the sampling coin for a new root request. It MUST be called
// exactly once per injected request (whether or not sampling hits) so the
// RNG stream stays aligned across runs. Returns the trace to thread through
// the request's lifetime, or nil when the request is not sampled.
func (tr *Tracer) Start(id int64, now float64) *ReqTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	hit := tr.rng.Float64() < tr.prob
	if !hit {
		return nil
	}
	rt := &ReqTrace{ID: id, Tenant: tr.tenant, ArrivedSec: now}
	if len(tr.traces) < maxTraces {
		tr.traces = append(tr.traces, rt)
	}
	return rt
}

// AddSpan appends one stage execution to a sampled request and feeds the
// stage aggregates. rt may be nil (unsampled request) — the call is a no-op.
func (tr *Tracer) AddSpan(rt *ReqTrace, s Span) {
	if tr == nil || rt == nil {
		return
	}
	s.QueueSec = s.StartSec - s.EnqueuedSec
	if s.QueueSec < 0 {
		s.QueueSec = 0
	}
	s.ExecSec = s.EndSec - s.StartSec
	tr.mu.Lock()
	rt.Spans = append(rt.Spans, s)
	agg := tr.stages[s.Stage]
	if agg == nil {
		agg = &stageAgg{}
		tr.stages[s.Stage] = agg
	}
	agg.count++
	if len(agg.queue) < maxStageSamples {
		agg.queue = append(agg.queue, s.QueueSec)
		agg.exec = append(agg.exec, s.ExecSec)
	}
	agg.batchSum += float64(s.Batch)
	agg.batchN++
	if tot := s.EndSec - s.EnqueuedSec; tot > agg.worst {
		agg.worst = tot
	}
	tr.mu.Unlock()
}

// Finish closes a sampled request. rt may be nil — no-op.
func (tr *Tracer) Finish(rt *ReqTrace, now float64, dropped, late bool) {
	if tr == nil || rt == nil {
		return
	}
	tr.mu.Lock()
	rt.DoneSec = now
	rt.TotalSec = now - rt.ArrivedSec
	rt.Dropped = dropped
	rt.Late = late
	tr.mu.Unlock()
}

// copyTraces returns deep copies of the retained span trees in sampling order.
func (tr *Tracer) copyTraces() []ReqTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]ReqTrace, 0, len(tr.traces))
	for _, rt := range tr.traces {
		cp := *rt
		cp.Spans = append([]Span(nil), rt.Spans...)
		out = append(out, cp)
	}
	return out
}

// StageSummary computes the per-stage latency breakdown over every sampled
// span so far, sorted by stage name.
func (tr *Tracer) StageSummary() []StageStat {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]StageStat, 0, len(tr.stages))
	for name, agg := range tr.stages {
		st := StageStat{Stage: name, Count: agg.count, WorstTotal: agg.worst}
		st.QueueP50 = quantile(agg.queue, 0.50)
		st.QueueP99 = quantile(agg.queue, 0.99)
		st.ExecP50 = quantile(agg.exec, 0.50)
		st.ExecP99 = quantile(agg.exec, 0.99)
		if agg.batchN > 0 {
			st.MeanBatch = agg.batchSum / float64(agg.batchN)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// ExportJSON renders the retained traces plus the stage summary as
// deterministic indented JSON — the payload lokiserve writes for
// -trace-out.
func (tr *Tracer) ExportJSON() ([]byte, error) {
	if tr == nil {
		return []byte("{}"), nil
	}
	payload := struct {
		Tenant string      `json:"tenant"`
		Stages []StageStat `json:"stages"`
		Traces []ReqTrace  `json:"traces"`
	}{Tenant: tr.tenant, Stages: tr.StageSummary(), Traces: tr.copyTraces()}
	return json.MarshalIndent(payload, "", "  ")
}

// quantile returns the q-th quantile of xs (copied and sorted; nearest-rank
// with linear interpolation). Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
