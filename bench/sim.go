package main

import (
	"context"
	"math"
	"sort"
	"time"

	"loki"
)

// simStepsPerSecond sizes the sim-shared traces from --seconds: 24 ten-second
// steps per second of budget play in about that long on the 2-core reference
// host. The work is fixed by the arguments, not by the clock, so both sides
// of a comparison simulate the same requests.
const (
	simStepsPerSecond = 24
	simStepSec        = 10
	// simSubmits requests per pipeline are handed in one by one through
	// Submit at the head of every step of a traced pass, to time the
	// hand-off itself.
	simSubmits = 20
)

type simStack struct {
	sys    *loki.MultiSystem
	traces map[string]*loki.Trace
}

var simPipelines = []string{"traffic", "social"}

func buildSim(cfg runConfig, rec *recorder) (*simStack, error) {
	steps := max(int(math.Round(simStepsPerSecond*cfg.seconds)), 6)
	sys, err := loki.NewMulti(loki.WithServers(20), loki.WithSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	id := rec.begin("tenancy.add_pipeline", 0, 0)
	if err := sys.AddPipeline("traffic", loki.TrafficAnalysisPipeline()); err != nil {
		return nil, err
	}
	if err := sys.AddPipeline("social", loki.SocialMediaPipeline()); err != nil {
		return nil, err
	}
	rec.end(id)
	return &simStack{sys: sys, traces: map[string]*loki.Trace{
		"traffic": loki.AzureTrace(cfg.seed, steps, simStepSec, 700),
		"social":  loki.TwitterTrace(cfg.seed+1, steps, simStepSec, 500),
	}}, nil
}

// arrivals is the number of requests the system has taken in so far.
func (st *simStack) arrivals() (int64, error) {
	var n int64
	for _, name := range simPipelines {
		snap, err := st.sys.Snapshot(name)
		if err != nil {
			return 0, err
		}
		n += snap.Arrivals
	}
	return n, nil
}

// runSimShared plays both traces through the public MultiSystem on the
// Simulated engine, one ten-second step per FeedAll so that every step is
// timed on its own. A step's wall time is the simulator's work plus whatever
// the planner solved during it, and MILP time is heavy-tailed: about a third
// of the steps hold a solve, and those hold over half of the wall time. The
// speed metrics are therefore low quantiles over steps — what simulated time
// costs while the planner only ticks — which repeat within a few percent
// where the run's total does not repeat within a sixth. plan-milp is where
// solve time is gated.
//
// The first joint allocation happens inside the first FeedAll, so it belongs
// to the timed phase; set-up is profiling, planner construction and trace
// synthesis.
func runSimShared(cfg runConfig) (*outcome, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	st, setup, err := repeatSetup(cfg.oneSetup,
		func() (*simStack, error) { return buildSim(cfg, rec) },
		func(s *simStack) { s.sys.Stop() })
	if err != nil {
		return nil, err
	}
	defer st.sys.Stop()
	o := newOutcome()
	o.e2e["setup_s"] = setup

	steps := len(st.traces["traffic"].QPS)
	type stepCost struct {
		nsPerReq float64
		requests int64
	}
	costs := make([]stepCost, 0, steps)
	var submitUs []float64
	ctx := context.Background()
	probe := startRuntimeProbe(cfg.trace)
	t0 := time.Now()
	for k := 0; k < steps; k++ {
		before, err := st.arrivals()
		if err != nil {
			return nil, err
		}
		s0 := time.Now()
		if cfg.trace {
			for _, name := range simPipelines {
				for j := 0; j < simSubmits; j++ {
					if err := st.sys.Submit(ctx, name); err != nil {
						o.violate("step %d: Submit %s: %v", k, name, err)
					}
				}
			}
			submitUs = append(submitUs, us(time.Since(s0))/float64(simSubmits*len(simPipelines)))
		}
		id := rec.begin("tenancy.feed_all", 0, int64(k))
		err = st.sys.FeedAll(map[string]*loki.Trace{
			"traffic": {Interval: simStepSec, QPS: st.traces["traffic"].QPS[k : k+1]},
			"social":  {Interval: simStepSec, QPS: st.traces["social"].QPS[k : k+1]},
		})
		rec.end(id)
		if err != nil {
			o.violate("step %d: FeedAll: %v", k, err)
		}
		after, err := st.arrivals()
		if err != nil {
			return nil, err
		}
		if n := after - before; n > 0 {
			costs = append(costs, stepCost{float64(time.Since(s0).Nanoseconds()) / float64(n), n})
		}
	}
	id := rec.begin("tenancy.stop", 0, int64(steps))
	err = st.sys.Stop()
	rec.end(id)
	if err != nil {
		o.violate("Stop: %v", err)
	}
	wall := time.Since(t0)

	var offered, onTime int64
	for name, rep := range st.sys.Reports() {
		if rep.Arrivals != rep.Completed+rep.Late+rep.Dropped {
			o.violate("%s: arrivals %d != on-time %d + late %d + dropped %d", name, rep.Arrivals, rep.Completed, rep.Late, rep.Dropped)
		}
		offered += rep.Arrivals + rep.Shed
		onTime += rep.Completed
	}
	// The cost of the request at quantile q: steps sorted by cost per request,
	// cut where that share of the requests lies below.
	sort.Slice(costs, func(a, b int) bool { return costs[a].nsPerReq < costs[b].nsPerReq })
	costAt := func(q float64) float64 {
		seen := int64(0)
		for _, c := range costs {
			if seen += c.requests; float64(seen) >= q*float64(offered) {
				return c.nsPerReq
			}
		}
		return costs[len(costs)-1].nsPerReq
	}
	all := st.sys.AggregateReport()
	o.attempted = offered
	o.e2e["slo_attainment"] = ratio(float64(onTime), float64(offered))
	// A quarter of the way up, not the median: the steps that hold a solve
	// are the busy ones, so they hold close to half of the requests, and the
	// median request falls now on one side of that divide and now on the
	// other. The first quartile lies inside the steps the planner left alone.
	o.e2e["goodput_per_s"] = ratio(1e9, costAt(0.25))
	o.e2e["accuracy_mean"] = all.Accuracy
	o.e2e["servers_mean"] = all.MeanServers
	o.e2e["latency_p50_ms"] = ms(all.LatencyP50)
	o.e2e["latency_tail_ms"] = ms(all.LatencyP99)
	// No front door on this path: the hand-off cost of a request is the wall
	// time the simulator spends on it, at the fastest tenth like the HTTP
	// workloads' — the steps the planner stayed out of.
	o.e2e["admit_latency_p10_us"] = costAt(0.10) / 1e3
	if !cfg.trace {
		return o, nil
	}

	l := o.layer
	probe.finish(float64(offered), l)
	// The whole run, planner included: the gap to 1e9 / goodput_per_s is
	// the planner's share of a simulated day.
	l["cluster.ns_per_req"] = ratio(float64(wall.Nanoseconds()), float64(offered))
	l["cluster.allocs_per_req"] = l["runtime.allocs_per_op"]
	l["cluster.bytes_per_req"] = l["runtime.bytes_per_op"]
	l["tenancy.submit_p50_us"] = median(submitUs)
	l["tenancy.submit_p99_us"] = quantile(submitUs, 0.99)
	controlMetrics(st.sys, simPipelines, l)
	observeMetrics(st.sys, "traffic", l)
	replayLayers(cfg.seed, l)
	return o, finishTracing(rec, cfg, "sim-shared", cpuTime()-probe.cpu0, l)
}
