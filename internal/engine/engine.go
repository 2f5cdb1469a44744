// Package engine is the serving backend behind the public loki.System API
// and internal/experiments.Run. A backend hosts the worker pool of one or
// more pipelines: it accepts plan publications from the core.MultiController,
// admits requests (one at a time via Submit or as whole arrival processes via
// FeedAll), and runs the per-second housekeeping loop (demand reports,
// heartbeats, controller steps) that the paper's Controller relies on. One
// implementation of MultiEngine serves both kinds: an internal/cluster per
// tenant on one internal/sim clock. KindSimulated runs that clock in virtual
// time; KindWallclock paces it by the scaled wall clock, with one pacer
// goroutine firing events as they fall due and one step goroutine making the
// controller calls. A single pipeline is a one-tenant MultiEngine; everything
// above this package is backend-agnostic.
package engine

import "errors"

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

// Lifecycle errors shared by both backends.
var (
	ErrNotStarted = errors.New("engine: not started")
	ErrStopped    = errors.New("engine: stopped")
)

// Kind selects a backend implementation.
type Kind int

const (
	KindSimulated Kind = iota
	KindWallclock
)
