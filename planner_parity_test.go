package loki_test

import (
	"reflect"
	"runtime"
	"testing"

	"loki"
)

// TestPlannerFastPathParity pins the fast planning path (plan cache, model
// reuse, warm starts — all default-on) to the from-scratch path on the
// golden serving scenarios: the whole Report, time series included, must be
// byte-identical with and without the WithPlannerCache escape hatch. One
// pipeline never fans its solves out, so parallelism is the multi-tenant
// test's half. These scenarios keep every MILP in its deterministic
// regime (terminated by proof or gap test, never by the wall clock), which
// is exactly where the fast path promises to change nothing but speed.
func TestPlannerFastPathParity(t *testing.T) {
	cases := []struct {
		name string
		pipe *loki.Pipeline
		tr   *loki.Trace
		opts []loki.Option
	}{
		{
			name: "traffic-azure",
			pipe: loki.TrafficAnalysisPipeline(),
			tr:   loki.AzureTrace(1, 24, 5, 450),
			opts: []loki.Option{loki.WithServers(20), loki.WithSeed(3)},
		},
		{
			name: "chain-ramp-pertask",
			pipe: loki.TrafficChainPipeline(),
			tr:   loki.RampTrace(100, 900, 16, 5),
			opts: []loki.Option{loki.WithServers(10), loki.WithSeed(7), loki.WithPolicy(loki.PerTaskPolicy)},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast, err := loki.Serve(c.pipe, c.tr, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			coldOpts := append(append([]loki.Option{}, c.opts...),
				loki.WithPlannerCache(false))
			cold, err := loki.Serve(c.pipe, c.tr, coldOpts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, cold) {
				t.Errorf("fast planning path diverged from cold path\nfast: %v\ncold: %v", fast, cold)
			}
		})
	}
}

// TestPlannerFastPathParityMultiTenant runs the parallelism half of the
// contract through the multi-tenant arbiter (two pipelines, shared pool):
// fanned-out per-tenant solves must produce byte-identical per-pipeline
// reports to strictly sequential ones, which the arbiter runs when
// GOMAXPROCS is 1. The WithPlannerCache hatch is
// deliberately not part of this comparison: on a shared pool the plan cache
// quantizes demand at the arbiter's adaptation threshold, so disabling it
// legitimately re-solves demands the cached path coalesces — a policy
// difference, not a solver one (the solver-level reuse parity is pinned by
// TestReusePreservesPlans in internal/core).
func TestPlannerFastPathParityMultiTenant(t *testing.T) {
	run := func(procs int) map[string]*loki.Report {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sys, err := loki.NewMulti(
			loki.WithServers(20),
			loki.WithSeed(11),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AddPipeline("traffic", loki.TrafficAnalysisPipeline()); err != nil {
			t.Fatal(err)
		}
		if err := sys.AddPipeline("social", loki.SocialMediaPipeline()); err != nil {
			t.Fatal(err)
		}
		err = sys.FeedAll(map[string]*loki.Trace{
			"traffic": loki.AzureTrace(2, 16, 5, 260),
			"social":  loki.TwitterTrace(3, 16, 5, 180),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Stop(); err != nil {
			t.Fatal(err)
		}
		out := map[string]*loki.Report{}
		for _, name := range sys.Pipelines() {
			r, err := sys.Report(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = r
		}
		return out
	}

	fast := run(max(runtime.GOMAXPROCS(0), 2))
	sequential := run(1)
	for name, fr := range fast {
		if !reflect.DeepEqual(fr, sequential[name]) {
			t.Errorf("pipeline %q: parallel planning diverged from sequential\nparallel:   %v\nsequential: %v", name, fr, sequential[name])
		}
	}
}
