package engine

import (
	"errors"
	"math/rand"

	"loki/internal/cluster"
	"loki/internal/core"
	"loki/internal/pipeline"
	"loki/internal/sim"
	"loki/internal/trace"
)

// simulated drives internal/cluster on the discrete-event engine. Virtual
// time advances only inside Feed and Stop, so the adapter is deterministic
// for a fixed seed and must not be called from multiple goroutines.
type simulated struct {
	cfg  Config
	eng  *sim.Engine
	cl   *cluster.Cluster
	ctrl *core.Controller

	arrRng  *rand.Rand
	started bool
	stopped bool
	stepErr error
}

// NewSimulated builds the discrete-event backend.
func NewSimulated(cfg Config) (Engine, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	eng := &sim.Engine{}
	cl, err := cluster.New(eng, cfg.Meta, cfg.Policy, cfg.Collector, cluster.Options{
		Servers:        cfg.Servers,
		Classes:        cfg.Classes,
		SLOSec:         cfg.SLOSec,
		NetLatencySec:  cfg.NetLatencySec,
		Seed:           cfg.Seed + 1,
		SwapLatencySec: cfg.SwapLatencySec,
		ExecJitter:     cfg.ExecJitter,
		QueueFactor:    cfg.QueueFactor,
		Telemetry:      cfg.Telemetry,
		Tracer:         cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &simulated{cfg: cfg, eng: eng, cl: cl}, nil
}

func (s *simulated) ApplyPlan(plan *core.Plan, routes *core.Routes) {
	s.cl.ApplyPlan(plan, routes)
}

func (s *simulated) Start(ctrl *core.Controller) error {
	if s.started {
		return errors.New("engine: already started")
	}
	s.started = true
	s.ctrl = ctrl
	s.arrRng = rand.New(rand.NewSource(s.cfg.Seed + 2))
	return nil
}

func (s *simulated) Submit() error {
	if !s.started {
		return ErrNotStarted
	}
	if s.stopped {
		return ErrStopped
	}
	s.cl.InjectRequest()
	return nil
}

// Feed schedules the trace's arrivals and the housekeeping ticks, then runs
// virtual time through the trace and drains in-flight requests — exactly the
// event program the old experiments.Run hand-wired.
func (s *simulated) Feed(tr *trace.Trace) error {
	if !s.started {
		return ErrNotStarted
	}
	if s.stopped {
		return ErrStopped
	}
	start := s.eng.Now()
	end := start + tr.Duration()

	chainArrivals(s.eng, start, tr.Arrivals(s.arrRng), s.cl.InjectRequest)

	// Per-second housekeeping: demand reports, heartbeats, reactive
	// reallocation, demand sampling.
	var secTick func()
	secTick = func() {
		now := s.eng.Now()
		s.housekeep(now, tr.RateAt(now-start))
		if now+1 <= end {
			s.eng.After(1, secTick)
		}
	}
	s.eng.After(1, secTick)

	var lbTick func()
	lbTick = func() {
		s.ctrl.Rebalance()
		if s.eng.Now()+s.cfg.LBIntervalSec <= end {
			s.eng.After(s.cfg.LBIntervalSec, lbTick)
		}
	}
	s.eng.After(s.cfg.LBIntervalSec, lbTick)

	var rmTick func()
	rmTick = func() {
		if err := s.ctrl.Step(true); err != nil && s.stepErr == nil {
			s.stepErr = err
		}
		if s.eng.Now()+s.cfg.RMIntervalSec <= end {
			s.eng.After(s.cfg.RMIntervalSec, rmTick)
		}
	}
	s.eng.After(s.cfg.RMIntervalSec, rmTick)

	// Run the trace, then drain in-flight requests (the tick chains stop
	// rescheduling past end, so the queue empties).
	s.eng.Run(end)
	s.eng.RunAll()
	return s.stepErr
}

// chainArrivals plays arrivals (offsets from start) on eng as a lazy chain:
// each arrival event calls inject and then schedules the next arrival, so
// one event per trace is pending at a time and the event heap stays small.
// One callback serves the whole chain.
func chainArrivals(eng *sim.Engine, start float64, arrivals []float64, inject func()) {
	next := 0
	var fire func()
	scheduleNext := func() {
		if next < len(arrivals) {
			eng.At(start+arrivals[next], fire)
			next++
		}
	}
	fire = func() {
		inject()
		scheduleNext()
	}
	scheduleNext()
}

func (s *simulated) housekeep(now, rateQPS float64) {
	count := s.cl.FlushDemand()
	s.cfg.Meta.ObserveDemandAt(now, float64(count))
	if s.cfg.OnTaskDemand != nil {
		for task, n := range s.cl.FlushTaskArrivals() {
			s.cfg.OnTaskDemand(pipeline.TaskID(task), float64(n))
		}
	}
	s.cfg.Collector.SampleDemand(now, rateQPS)
	s.cl.Heartbeat()
	if err := s.ctrl.Step(false); err != nil && s.stepErr == nil {
		s.stepErr = err
	}
}

// Stop drains whatever Submit injected since the last Feed and freezes the
// backend.
func (s *simulated) Stop() error {
	if !s.started || s.stopped {
		s.stopped = true
		return s.stepErr
	}
	s.stopped = true
	s.eng.RunAll()
	return s.stepErr
}

func (s *simulated) Stats() Stats {
	injected, completed, dropped, rerouted, swaps := s.cl.Totals()
	return Stats{
		Injected:  injected,
		Completed: completed,
		Dropped:   dropped,
		Rerouted:  rerouted,
		Swaps:     swaps,
	}
}

func (s *simulated) Now() float64 { return s.eng.Now() }

func (s *simulated) ActiveServers() int { return s.cl.ActiveServers() }

func (s *simulated) ActiveByClass() []int { return s.cl.ActiveByClass() }
