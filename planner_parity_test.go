package loki_test

import (
	"reflect"
	"runtime"
	"testing"

	"loki"
)

// TestPlannerFastPathParityMultiTenant pins the planner's parallelism
// through the multi-tenant arbiter (two pipelines, shared pool): fanned-out
// per-tenant solves must produce byte-identical per-pipeline reports to
// strictly sequential ones, which the arbiter runs when GOMAXPROCS is 1.
// Each tenant owns its allocator, so its standing step models and warm
// starts see the same solves in the same order either way. The solver-level
// statement, that reuse does not change a plan against fresh solver state,
// is TestReusePreservesPlans in internal/core.
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
