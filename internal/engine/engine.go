// Package engine is the serving backend behind the public loki.System API
// and every internal/experiments driver. A backend hosts the worker pool of
// one or more pipelines: it accepts plan publications from the
// core.MultiController (retargeting each admission-fronted tenant's front
// door to the published routes), admits requests (one at a time via Submit
// or as whole arrival processes via FeedAll), and runs the per-second housekeeping loop (demand reports,
// heartbeats, controller steps) that the paper's Controller relies on. One
// implementation of MultiEngine serves both kinds: an internal/cluster per
// tenant on one internal/sim clock. KindSimulated runs that clock in virtual
// time; KindWallclock paces it by the scaled wall clock, with one pacer
// goroutine firing events as they fall due and one step goroutine making the
// controller calls. A single pipeline is a one-tenant MultiEngine; everything
// above this package is backend-agnostic.
package engine

import (
	"errors"

	"loki/internal/telemetry"
)

// Stats are cumulative request totals of a backend. Injected counts root
// requests admitted; every injected request eventually lands in exactly one
// of Completed or Dropped. Shed counts requests refused by an admission
// controller before injection — they are not part of Injected (offered load
// is Injected + Shed) and stay zero when no controller is armed.
type Stats struct {
	Injected  int64
	Completed int64
	Dropped   int64
	Rerouted  int64
	Swaps     int64
	Shed      int64
}

// Observation is one tenant and the pool at one engine instant
// (MultiEngine.Observe).
type Observation struct {
	TimeSec float64 // the backend's shared time in seconds since Start
	Stats   Stats
	// Active counts the tenant's workers hosting a model; ActiveByClass
	// splits them by hardware class, in class order.
	Active        int
	ActiveByClass []int
	// LiveByClass counts the pool's servers up (not crashed) per class.
	LiveByClass []int
	// Workers are the tenant's per-worker telemetry rows, nil with
	// telemetry off.
	Workers []telemetry.WorkerRow
}

// Lifecycle errors of the backend, on both kinds.
var (
	errNotStarted = errors.New("engine: not started")
	errStopped    = errors.New("engine: stopped")
)

// Kind selects a backend implementation.
type Kind int

const (
	// KindSimulated runs the discrete-event simulator in virtual time.
	KindSimulated Kind = iota
	// KindWallclock runs the same simulator paced by the wall clock.
	KindWallclock
)
