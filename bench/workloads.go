package main

import "fmt"

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where a traced pass writes its spans
	// oneSetup builds the system once instead of repeating set-up for a
	// steady median; the scaled-down test pass uses it.
	oneSetup bool
}

// outcome is what one pass of one workload measured. A violation is a failed
// output check; each also counts as one failed operation.
type outcome struct {
	attempted  int64
	failed     int64
	violations []string
	e2e        map[string]float64
	layer      map[string]float64
	// unresolved is set when the generator, not the system, limited the run
	// (loadgen.lag_p99_ms over 10 ms): the numbers are printed but a
	// comparison must not read them as a verdict on the system.
	unresolved string
	// checksums[r] folds every plan a plan-* pass published up to round r;
	// truncated records that a wall-clock-truncated solve made the pass
	// timing-dependent.
	checksums []uint64
	truncated bool
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// violate records a failed output check.
func (o *outcome) violate(format string, args ...any) {
	o.failed++
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return o.failed == 0 && o.attempted > 0 }

type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*outcome, error)
}

// workloads lists the six workloads in the order the suite runs them. The
// why strings are the ones BENCHMARK.json carries.
var workloads = []workload{
	{"http-steady", "paper operating point: 20 servers at 0.7x capacity over HTTP; model time dominates, ingress is nearly idle", func(c runConfig) (*outcome, error) {
		return runHTTP(httpSpec{name: "http-steady", servers: 20, qps: 1060}, c)
	}},
	{"http-dense", "100 servers at 5000 qps: per-request CPU in ingress, tenancy, live, metrics and telemetry dominates", func(c runConfig) (*outcome, error) {
		return runHTTP(httpSpec{name: "http-dense", servers: 100, qps: 5000}, c)
	}},
	{"http-overload", "20 servers at 2x capacity: half the answers are 429, so the shed path is exercised as hard as the accept path", func(c runConfig) (*outcome, error) {
		return runHTTP(httpSpec{name: "http-overload", servers: 20, qps: 3000}, c)
	}},
	{"sim-shared", "two pipelines share 20 simulated servers under Azure- and Twitter-shaped traces: cluster, sim, metrics, telemetry with the planner in the loop, no sockets", runSimShared},
	{"plan-milp", "control path at paper scale: two contending tenants on 20 servers re-solved every round (plan cache off), so MILP and LP time and truncation dominate", runPlanMILP},
	{"plan-fleet", "control path at fleet scale: 1000 servers x 24 tenants x 3 classes, arbiter bookkeeping, dirty tracking and greedy dominate", runPlanFleet},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics; every workload reports every one of them.
// What each means on the serving path (http-*, sim-shared) and on the
// control path (plan-*) is tabulated in README.md. Bounds are relative to the
// parent's median and come from the spread table in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"slo_attainment", "share", "higher", 0.05},
	{"accuracy_mean", "share", "higher", 0.06},
	{"servers_mean", "count", "lower", 0.06},
	{"goodput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"admit_latency_p10_us", "us", "lower", 0.25},
}

// perLayer are the ungated metrics of single layers, named layer.metric
// after the module that does the work. A layer that does not run on a
// workload reports 0 there.
var perLayer = []metricDef{
	{"loadgen.sent", "count", "higher", 0},
	{"loadgen.lag_p99_ms", "ms", "lower", 0},
	{"loadgen.timer_slack_p50_us", "us", "lower", 0},
	{"nethttp.overhead_p50_us", "us", "lower", 0},
	{"ingress.handler_self_p50_us", "us", "lower", 0},
	{"ingress.handler_self_p99_us", "us", "lower", 0},
	{"ingress.responses_202", "count", "higher", 0},
	{"ingress.responses_429", "count", "lower", 0},
	{"ingress.responses_other", "count", "lower", 0},
	{"ingress.shed_share", "share", "lower", 0},
	{"ingress.retry_after_mean_s", "s", "lower", 0},
	{"ingress.admit_latency_p50_us", "us", "lower", 0},
	{"ingress.admit_latency_p99_us", "us", "lower", 0},
	{"ingress.shed_latency_p50_us", "us", "lower", 0},
	{"ingress.admit_ns_per_op", "ns", "lower", 0},
	{"ingress.admit_contended_ns_per_op", "ns", "lower", 0},
	{"tenancy.submit_p50_us", "us", "lower", 0},
	{"tenancy.submit_p99_us", "us", "lower", 0},
	{"tenancy.snapshot_us", "us", "lower", 0},
	{"tenancy.build_prime_ms", "ms", "lower", 0},
	{"live.queue_wait_p50_ms", "ms", "lower", 0},
	{"live.queue_wait_p99_ms", "ms", "lower", 0},
	{"live.exec_p50_ms", "ms", "lower", 0},
	{"live.batch_mean", "count", "higher", 0},
	{"live.exec_overshoot_p50_ms", "ms", "lower", 0},
	{"live.fanout_gap_p50_ms", "ms", "lower", 0},
	{"live.late", "count", "lower", 0},
	{"live.dropped", "count", "lower", 0},
	{"live.rerouted", "count", "lower", 0},
	{"live.occupancy_mean", "share", "higher", 0},
	{"live.stop_drain_ms", "ms", "lower", 0},
	{"cluster.ns_per_req", "ns", "lower", 0},
	{"cluster.allocs_per_req", "count", "lower", 0},
	{"cluster.bytes_per_req", "B", "lower", 0},
	{"sim.event_ns", "ns", "lower", 0},
	{"engine.apply_plan_p50_us", "us", "lower", 0},
	{"engine.apply_plan_p99_us", "us", "lower", 0},
	{"core.rounds", "count", "higher", 0},
	{"core.allocates", "count", "lower", 0},
	{"core.greedy_plans", "count", "higher", 0},
	{"core.clean_skips", "count", "higher", 0},
	{"core.greedy_hit_share", "share", "higher", 0},
	{"core.truncated_solves", "count", "lower", 0},
	{"core.truncated_share", "share", "lower", 0},
	{"core.model_builds", "count", "lower", 0},
	{"core.model_reuses", "count", "higher", 0},
	{"core.round_p50_ms", "ms", "lower", 0},
	{"core.allocate_p50_ms", "ms", "lower", 0},
	{"core.allocate_p99_ms", "ms", "lower", 0},
	{"core.greedy_p50_us", "us", "lower", 0},
	{"core.arbiter_self_p50_us", "us", "lower", 0},
	{"core.routes_p50_us", "us", "lower", 0},
	{"core.observe_demand_ns", "ns", "lower", 0},
	{"core.plan_churn_replicas", "count", "lower", 0},
	{"core.allocs_per_round", "count", "lower", 0},
	{"core.bytes_per_round", "B", "lower", 0},
	{"milp.solves", "count", "lower", 0},
	{"milp.nodes_per_solve", "count", "lower", 0},
	{"milp.proven_share", "share", "higher", 0},
	{"lp.iters_per_solve", "count", "lower", 0},
	{"lp.vars_mean", "count", "lower", 0},
	{"lp.rows_mean", "count", "lower", 0},
	{"metrics.record_ns_per_req", "ns", "lower", 0},
	{"metrics.summarize_us", "us", "lower", 0},
	{"telemetry.hooks_ns_per_req", "ns", "lower", 0},
	{"telemetry.scrape_ms", "ms", "lower", 0},
	{"telemetry.series", "count", "lower", 0},
	{"forecast.observe_predict_ns", "ns", "lower", 0},
	{"profiles.profile_graph_ms", "ms", "lower", 0},
	{"trace.arrivals_ns_per_req", "ns", "lower", 0},
	{"runtime.cpu_us_per_req", "us", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.bytes_per_op", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.heap_inuse_peak_mb", "MB", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"tracing.spans", "count", "lower", 0},
	{"tracing.overhead_share", "share", "lower", 0},
}
