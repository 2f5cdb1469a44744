package main

import (
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"loki"
	"loki/internal/forecast"
	"loki/internal/ingress"
	"loki/internal/metrics"
	"loki/internal/profiles"
	"loki/internal/sim"
	"loki/internal/telemetry"
	"loki/internal/trace"
)

// replayLayers times the per-request calls of layers whose cost cannot be
// separated from outside a running system, by replaying the call sequence
// one request makes against a fresh instance of the layer. The numbers are
// budgets per call, free of queueing; each traced pass records them so that
// they sit next to the spans of the run they explain.
func replayLayers(seed int64, l map[string]float64) {
	procs := runtime.GOMAXPROCS(0)

	// ingress: the admission decision of one arrival, uncontended and with
	// every processor deciding at once on the one mutex-guarded bucket.
	admit := func(goroutines int) float64 {
		const ops = 200000
		adm := ingress.NewAdmission(ingress.Config{SLOSec: 0.25})
		adm.SetRate(0, 1e6)
		return perOp(goroutines, ops, func(g, i int) {
			adm.Admit(float64(i)*1e-6, 0)
		})
	}
	l["ingress.admit_ns_per_op"] = admit(1)
	l["ingress.admit_contended_ns_per_op"] = admit(procs)

	// metrics: what one admitted, answered request records.
	col := metrics.NewCollector(30, 20)
	l["metrics.record_ns_per_req"] = perOp(procs, 100000, func(g, i int) {
		t := float64(i) * 1e-3
		col.Arrival(t)
		col.Admitted(t)
		col.Completed(t+0.08, false, 0.08, 0.95)
	})

	// telemetry: the three worker hooks one sub-request crosses.
	tel := telemetry.NewCollector(telemetry.NewRegistry(), "replay", []telemetry.WorkerClass{{Name: "default", Count: 20}})
	l["telemetry.hooks_ns_per_req"] = perOp(1, 100000, func(g, i int) {
		t, w := float64(i)*1e-3, i%20
		tel.Enqueue(t, w)
		tel.BatchStart(t, w, 1)
		tel.BatchEnd(t+0.01, w, 1)
	})

	// sim: scheduling and firing one no-op event, on 64 self-rescheduling
	// chains so the heap stays as shallow as a serving run keeps it.
	const events = 1000000
	eng := &sim.Engine{}
	left := events
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			eng.After(1, tick)
		}
	}
	t0 := time.Now()
	for c := 0; c < 64; c++ {
		eng.At(float64(c)/64, tick)
	}
	eng.RunAll()
	l["sim.event_ns"] = float64(time.Since(t0).Nanoseconds()) / events

	// The set-up layers: idle in every timed phase.
	hw := &forecast.HoltWinters{}
	l["forecast.observe_predict_ns"] = perOp(1, 100000, func(g, i int) {
		hw.Observe(float64(i), 500+float64(i%60))
		hw.Predict(10)
	})
	var prof []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		(&profiles.Profiler{Seed: seed}).ProfileGraphClasses(profiles.TrafficTree(), profiles.Batches, profiles.DefaultClasses(20))
		prof = append(prof, ms(time.Since(t0)))
	}
	l["profiles.profile_graph_ms"] = median(prof)
	tr := trace.AzureLike(seed, 60, 10).ScaleToPeak(700)
	t0 = time.Now()
	n := len(tr.Arrivals(rand.New(rand.NewSource(seed))))
	l["trace.arrivals_ns_per_req"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(n))
}

// perOp runs fn ops times on each of the given goroutines at once and returns
// the nanoseconds one goroutine spent per operation.
func perOp(goroutines, ops int, fn func(g, i int)) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				fn(g, i)
			}
		}(g)
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// controlMetrics reads what the joint planner did during a serving run from
// the system's public accessors: rounds and truncated solves from the
// telemetry registry, MILP invocations from the snapshots.
func controlMetrics(sys *loki.MultiSystem, pipelines []string, l map[string]float64) {
	var rounds, truncated, allocates float64
	for _, p := range sys.Telemetry().Gather() {
		switch p.Name {
		case "loki_planner_rounds_total":
			rounds += p.Value
		case "loki_planner_truncated_solves_total":
			truncated += p.Value
		}
	}
	for _, name := range pipelines {
		if snap, err := sys.Snapshot(name); err == nil {
			allocates += float64(snap.Allocates)
		}
	}
	l["core.rounds"] = rounds
	l["core.allocates"] = allocates
	l["core.truncated_solves"] = truncated
	l["core.truncated_share"] = ratio(truncated, allocates)
}

// observeMetrics times the read side of the metrics and telemetry layers at
// the end of a run, when their state is as large as it gets.
func observeMetrics(sys *loki.MultiSystem, pipeline string, l map[string]float64) {
	var sum []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := sys.Report(pipeline); err != nil {
			return
		}
		sum = append(sum, us(time.Since(t0)))
	}
	l["metrics.summarize_us"] = median(sum)
	var scrape []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sys.Telemetry().WritePrometheus(io.Discard)
		scrape = append(scrape, ms(time.Since(t0)))
	}
	l["telemetry.scrape_ms"] = median(scrape)
	l["telemetry.series"] = float64(len(sys.Telemetry().Gather()))
}

// finishTracing writes the pass's spans under the output directory and
// reports the tracing cost: spans recorded × the calibrated cost of one span
// over the CPU time the timed phase used.
func finishTracing(rec *recorder, cfg runConfig, workload string, cpu time.Duration, l map[string]float64) error {
	n := rec.count()
	l["tracing.spans"] = float64(n)
	l["tracing.overhead_share"] = ratio(float64(n)*float64(perSpanCost().Nanoseconds()), float64(cpu.Nanoseconds()))
	if cfg.outDir == "" {
		return nil
	}
	return rec.write(cfg.outDir, workload, cfg.seed)
}
