package loki

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"loki/internal/ingress"
)

// ErrStopped is returned by Submit and Feed after Stop.
var ErrStopped = errors.New("loki: system is stopped")

// ErrOverloaded is the sentinel Submit errors match (errors.Is) when an
// admission controller armed by WithAdmission sheds the request: the
// pipeline is over its granted rate (or saturated) and the caller should
// back off for the RetryAfter hint rather than retry immediately. The HTTP
// front door translates it to 429 + Retry-After.
var ErrOverloaded = ingress.ErrShed

// RetryAfter extracts the back-off hint from an ErrOverloaded error: how
// long until the shedding pipeline expects capacity again. ok is false when
// err carries no admission decision.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var se *ingress.ShedError
	if !errors.As(err, &se) {
		return 0, false
	}
	return time.Duration(se.RetryAfterSec * float64(time.Second)), true
}

// defaultPipeline names the single tenant a System registers with its
// underlying MultiSystem.
const defaultPipeline = "default"

// System is a long-lived serving instance for one pipeline: a cluster of
// workers, the Resource Manager and Load Balancer reacting to live demand,
// and an online request frontend. Build one with New, inject traffic with
// Submit or Feed, observe it with Snapshot, Plan, and Routes, and drain it
// with Stop.
//
// A System is a thin wrapper over a single-tenant MultiSystem — the same
// control plane that arbitrates several pipelines on a shared pool runs
// here with one tenant holding the whole pool, so single- and multi-tenant
// serving behave identically. Use NewMulti to share the pool across
// pipelines.
//
// On the default Simulated engine, virtual time advances only while Feed or
// Stop runs, so the System must be driven from a single goroutine; on the
// Wallclock engine, Submit and Snapshot are safe to call concurrently with a
// running Feed.
type System struct {
	ms *MultiSystem
}

// New stands up a serving system for the pipeline: it profiles the model
// variants, wires the Resource Manager (Loki's MILP or a baseline via
// WithBaseline), and prepares the engine selected by WithEngine. The system
// idles until traffic arrives: the first Feed (or Submit) runs the initial
// allocation and starts the engine.
func New(p *Pipeline, opts ...Option) (*System, error) {
	if p == nil {
		return nil, fmt.Errorf("loki: nil pipeline")
	}
	ms, err := NewMulti(opts...)
	if err != nil {
		return nil, err
	}
	if err := ms.AddPipeline(defaultPipeline, p); err != nil {
		return nil, err
	}
	// Build eagerly so engine and controller configuration errors surface
	// from New, as they always have, rather than from the first injection.
	ms.mu.Lock()
	err = ms.buildLocked()
	ms.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &System{ms: ms}, nil
}

// Submit admits one request at the system's current time. On the Simulated
// engine the request is processed when virtual time next advances (a Feed or
// Stop call); on the Wallclock engine it is served immediately. The context
// is checked for cancellation before admission.
func (s *System) Submit(ctx context.Context) error {
	return s.ms.Submit(ctx, defaultPipeline)
}

// Feed plays a workload trace's Poisson arrival process through the system,
// blocking until the last arrival has been admitted (virtual time on the
// Simulated engine, scaled wall time on Wallclock). The first Feed also
// pre-warms the Resource Manager for the trace's opening demand. Traces can
// be fed back to back; requests still in flight keep draining across calls.
func (s *System) Feed(tr *Trace) error {
	return s.ms.Feed(defaultPipeline, tr)
}

// Stop gracefully drains in-flight requests and shuts the system down.
// Idempotent; after Stop, Submit and Feed return ErrStopped while Snapshot,
// Plan, Routes, and Report keep working on the final state.
func (s *System) Stop() error { return s.ms.Stop() }

// Snapshot is a point-in-time view of a running System.
type Snapshot struct {
	// TimeSec is the engine time in seconds since New (virtual on the
	// Simulated engine, scaled wall time on Wallclock).
	TimeSec float64
	// Arrivals, Completed, Dropped, and Rerouted are request totals so far.
	Arrivals, Completed, Dropped, Rerouted int64
	// Shed counts requests refused by admission control (WithAdmission);
	// they are not part of Arrivals. Zero when no controller is armed.
	Shed int64
	// InFlight is the number of admitted requests not yet resolved.
	InFlight int64
	// ActiveServers counts workers currently hosting a model variant.
	ActiveServers int
	// ActiveServersByClass breaks ActiveServers down per hardware class
	// (keyed by class name). Nil on homogeneous systems.
	ActiveServersByClass map[string]int
	// GrantedServersByClass breaks GrantedServers down per hardware class.
	// Nil on homogeneous systems.
	GrantedServersByClass map[string]int
	// GrantedServers is the partition of the pool the joint allocator
	// currently grants this pipeline: its standing plan's server count when
	// the pool is uncontended (the rest of the pool is idle headroom any
	// tenant may grow into), and its arbitrated share under contention.
	GrantedServers int
	// Allocates counts Resource Manager MILP invocations (plan-cache
	// misses) so far.
	Allocates int
	// ObservedDemand is the most recent raw per-second demand sample the
	// Frontend reported (zero before the first housekeeping tick).
	ObservedDemand float64
	// PredictedDemand is the forecaster's demand prediction at the planning
	// horizon (see WithForecaster). Without a forecaster it equals the
	// smoothed demand estimate — the value the reactive planner uses.
	PredictedDemand float64
	// AdmittedQPS and ShedQPS are the admission controller's live gauges —
	// admitted and shed request rates over the trailing few seconds. Zero
	// without WithAdmission.
	AdmittedQPS, ShedQPS float64
	// GrantedRateQPS is the admission controller's current target rate: the
	// frontend capacity the joint allocator granted this pipeline on the
	// last adaptation round. Zero without WithAdmission (use GrantedRate for
	// the derivation on admission-free systems).
	GrantedRateQPS float64
	// LiveServers is the number of pool servers currently up — the pool
	// size minus servers crashed by the fault injector (WithFaults). It
	// equals the pool size when no fault is active.
	LiveServers int
	// LiveServersByClass breaks LiveServers down per hardware class. Nil on
	// homogeneous systems.
	LiveServersByClass map[string]int
	// Workers holds one live telemetry row per pool worker — queue depth,
	// in-flight batch, occupancy, served QPS, speed factor, liveness — as
	// maintained by the per-worker collector. Nil under WithTelemetry(false)
	// or before the control plane is built.
	Workers []WorkerStatus
}

// Snapshot returns live counters without disturbing the run.
func (s *System) Snapshot() Snapshot {
	snap, _ := s.ms.Snapshot(defaultPipeline)
	return snap
}

// Plan returns the Resource Manager's standing allocation plan (nil before
// the first allocation).
func (s *System) Plan() *Plan {
	plan, _ := s.ms.Plan(defaultPipeline)
	return plan
}

// Routes returns the Load Balancer's standing routing tables (nil before
// the first allocation).
func (s *System) Routes() *Routes {
	routes, _ := s.ms.Routes(defaultPipeline)
	return routes
}

// Report summarizes the run so far (or the whole run, after Stop) with the
// §6.1 metrics.
func (s *System) Report() *Report {
	r, _ := s.ms.Report(defaultPipeline)
	r.Pipeline = "" // a single-pipeline report needs no tenant label
	return r
}

// GrantedRate returns the frontend capacity the Resource Manager currently
// grants the pipeline, in requests per second — the rate an armed admission
// controller admits at (zero before the first allocation).
func (s *System) GrantedRate() float64 {
	qps, _ := s.ms.GrantedRate(defaultPipeline)
	return qps
}

// Telemetry returns the system's metric registry (nil under
// WithTelemetry(false)) — see MultiSystem.Telemetry.
func (s *System) Telemetry() *TelemetryRegistry { return s.ms.Telemetry() }

// WriteTraces writes the sampled request traces as indented JSON — see
// MultiSystem.WriteTraces.
func (s *System) WriteTraces(w io.Writer) error { return s.ms.WriteTraces(w) }

// ServeHTTP exposes the system's single pipeline over HTTP under the name
// "default" (POST /v1/default/infer, GET /v1/default/snapshot, GET
// /healthz) — see MultiSystem.ServeHTTP.
func (s *System) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.ms.ServeHTTP(w, r) }

// Drain puts the HTTP front door into draining mode (503 on new requests)
// while in-flight work keeps being served; follow with Stop. See
// MultiSystem.Drain.
func (s *System) Drain() { s.ms.Drain() }
