package loki_test

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"loki"
)

// Golden numbers recorded from the single-pipeline serving path before the
// multi-tenant refactor. New(p, ...) is now a thin wrapper over a
// one-tenant MultiSystem, and these runs must still reproduce the old
// reports bit for bit: same plans, same routing, same RNG streams.
func TestSinglePipelineParityWithSeedBehavior(t *testing.T) {
	type golden struct {
		name                       string
		pipe                       *loki.Pipeline
		tr                         *loki.Trace
		opts                       []loki.Option
		accuracy, viol             float64
		meanSrv, minSrv, maxSrv    float64
		meanLat                    time.Duration
		arr, comp, late, drop, rer int64
	}
	cases := []golden{
		{
			name:     "traffic-azure",
			pipe:     loki.TrafficAnalysisPipeline(),
			tr:       loki.AzureTrace(1, 24, 5, 450),
			opts:     []loki.Option{loki.WithServers(20), loki.WithSeed(3)},
			accuracy: 1, viol: 0.12064040889957907,
			meanSrv: 9, minSrv: 3, maxSrv: 17,
			meanLat: 135222678 * time.Nanosecond,
			arr:     26608, comp: 23398, late: 2839, drop: 371, rer: 4,
		},
		{
			name: "chain-ramp-pertask",
			pipe: loki.TrafficChainPipeline(),
			tr:   loki.RampTrace(100, 900, 16, 5),
			opts: []loki.Option{loki.WithServers(10), loki.WithSeed(7), loki.WithPolicy(loki.PerTaskPolicy)},
			// Re-recorded when branch and bound began re-optimising node
			// relaxations from the parent's basis (accuracy 0.92674 →
			// 0.92624, violations 0.09053 → 0.08570), and again when the
			// accuracy-scaling search began branching on per-(task, class)
			// replica totals (accuracy 0.92624 → 0.92712, violations
			// 0.08570 → 0.09844): each time the searches stop at a
			// different plan inside their 1% gap. The second violation move
			// is all in the 30-60 s window (724 → 1184 late or dropped),
			// where the plans at 605-735 qps are now the more accurate ones
			// (0.9495, 0.9265, 0.9276 against 0.9463, 0.9242, 0.9241) and
			// load task 1's batch-8 and batch-16 configs at 0.95-1.0 of
			// their profiled peak rate, which Eq. 2 counts as feasible.
			accuracy: 0.9271221902684782, viol: 0.0984357402077337,
			meanSrv: 9.080459770114942, minSrv: 7.241379310344827, maxSrv: 10,
			meanLat: 92762714 * time.Nanosecond,
			arr:     39955, comp: 36022, late: 781, drop: 3152, rer: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := loki.Serve(c.pipe, c.tr, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got, want float64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %v, want %v (seed behavior changed)", what, got, want)
				}
			}
			check("Accuracy", r.Accuracy, c.accuracy)
			check("SLOViolationRatio", r.SLOViolationRatio, c.viol)
			check("MeanServers", r.MeanServers, c.meanSrv)
			check("MinServers", r.MinServers, c.minSrv)
			check("MaxServers", r.MaxServers, c.maxSrv)
			check("MeanLatency", float64(r.MeanLatency), float64(c.meanLat))
			check("Arrivals", float64(r.Arrivals), float64(c.arr))
			check("Completed", float64(r.Completed), float64(c.comp))
			check("Late", float64(r.Late), float64(c.late))
			check("Dropped", float64(r.Dropped), float64(c.drop))
			check("Rerouted", float64(r.Rerouted), float64(c.rer))
		})
	}
}

// Two pipelines served concurrently on one shared pool: each gets its own
// routing table and a labeled per-pipeline report, and the grants always
// fit the pool.
func TestMultiTenantSharedPool(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(24), loki.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("traffic", loki.TrafficAnalysisPipeline(), loki.WithShare(0.4)); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("social", loki.SocialMediaPipeline(),
		loki.WithShare(0.3), loki.WithPipelineSLO(300*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	err = ms.FeedAll(map[string]*loki.Trace{
		"traffic": loki.AzureTrace(1, 24, 5, 500),
		"social":  loki.TwitterTrace(2, 24, 5, 300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}

	grants := ms.Grants()
	if g := grants["traffic"] + grants["social"]; g > 24 {
		t.Fatalf("grants %v exceed the pool", grants)
	}
	for _, name := range []string{"traffic", "social"} {
		routes, err := ms.Routes(name)
		if err != nil || routes == nil {
			t.Fatalf("pipeline %q has no routing tables (err %v)", name, err)
		}
		r, err := ms.Report(name)
		if err != nil {
			t.Fatal(err)
		}
		if r.Pipeline != name {
			t.Fatalf("report labeled %q, want %q", r.Pipeline, name)
		}
		if !strings.Contains(r.String(), "pipeline="+name) {
			t.Fatalf("report string lacks the pipeline label: %s", r)
		}
		if r.Arrivals == 0 || r.Completed == 0 {
			t.Fatalf("pipeline %q served nothing: %s", name, r)
		}
		snap, err := ms.Snapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Completed+snap.Dropped != snap.Arrivals || snap.InFlight != 0 {
			t.Fatalf("pipeline %q conservation after drain: %+v", name, snap)
		}
	}
	// The routing tables are per pipeline, not shared.
	rt, _ := ms.Routes("traffic")
	rs, _ := ms.Routes("social")
	if rt == rs {
		t.Fatal("pipelines share one routing table")
	}
	agg := ms.AggregateReport()
	rt1, _ := ms.Report("traffic")
	rt2, _ := ms.Report("social")
	if agg.Pipeline != "all" || agg.Arrivals != rt1.Arrivals+rt2.Arrivals {
		t.Fatalf("aggregate mismatch: %s vs %s + %s", agg, rt1, rt2)
	}
}

// Combined demand far beyond the pool: the joint allocator degrades both
// pipelines gracefully inside their partitions (saturation → shed load)
// instead of erroring or letting one tenant starve the other below its
// guaranteed share.
func TestMultiTenantContentionDegradesGracefully(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(10), loki.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("a", loki.TrafficChainPipeline(), loki.WithShare(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("b", loki.TrafficChainPipeline(), loki.WithShare(0.5)); err != nil {
		t.Fatal(err)
	}
	// Each trace alone would need well over 10 servers.
	err = ms.FeedAll(map[string]*loki.Trace{
		"a": loki.RampTrace(2000, 2500, 10, 5),
		"b": loki.RampTrace(2000, 2500, 10, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	grants := ms.Grants()
	if grants["a"]+grants["b"] > 10 {
		t.Fatalf("contended grants %v exceed the pool", grants)
	}
	for _, name := range []string{"a", "b"} {
		if grants[name] < 2 {
			t.Fatalf("pipeline %q squeezed below its keep-warm floor: %v", name, grants)
		}
		r, _ := ms.Report(name)
		if r.Completed == 0 {
			t.Fatalf("pipeline %q starved outright under contention: %s", name, r)
		}
		if r.SLOViolationRatio == 0 {
			t.Fatalf("pipeline %q shows no degradation under 2× oversubscription: %s", name, r)
		}
	}
}

// An induced spike in one pipeline triggers a joint re-allocation that
// reassigns idle servers without squeezing the quiet pipeline below its
// share, and the quiet pipeline keeps meeting its SLO.
func TestMultiTenantSpikeStealsIdleServers(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(20), loki.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("spiky", loki.TrafficChainPipeline(), loki.WithShare(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("quiet", loki.TrafficChainPipeline(), loki.WithShare(0.5)); err != nil {
		t.Fatal(err)
	}
	spike := loki.RampTrace(200, 200, 30, 5).WithSpike(0.4, 0.6, 8) // 200 → 1600 qps mid-run
	flat := loki.RampTrace(150, 150, 30, 5)
	if err := ms.FeedAll(map[string]*loki.Trace{"spiky": spike, "quiet": flat}); err != nil {
		t.Fatal(err)
	}
	grants := ms.Grants()
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	if grants["spiky"]+grants["quiet"] > 20 {
		t.Fatalf("grants %v exceed the pool", grants)
	}
	// The spike outgrows the spiky pipeline's 10-server guarantee; the extra
	// servers can only have come from the quiet tenant's idle share.
	if grants["spiky"] <= 10 {
		t.Fatalf("spike did not steal idle servers: grants %v", grants)
	}
	if grants["quiet"] < 2 {
		t.Fatalf("quiet pipeline lost its keep-warm floor: %v", grants)
	}
	quiet, _ := ms.Report("quiet")
	if quiet.SLOViolationRatio > 0.10 {
		t.Fatalf("quiet pipeline degraded during the neighbour's spike: %s", quiet)
	}
	spiky, _ := ms.Report("spiky")
	if spiky.Completed == 0 {
		t.Fatalf("spiky pipeline served nothing: %s", spiky)
	}
}

// Registration and lookup error paths.
func TestMultiTenantRegistrationErrors(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("", loki.TrafficChainPipeline()); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := ms.AddPipeline("all", loki.TrafficChainPipeline()); err == nil {
		t.Fatal("reserved aggregate name accepted")
	}
	if err := ms.AddPipeline("a", nil); err == nil {
		t.Fatal("nil pipeline accepted")
	}
	if err := ms.AddPipeline("a", loki.TrafficChainPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("a", loki.SocialMediaPipeline()); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := ms.AddPipeline("b", loki.TrafficChainPipeline(), loki.WithShare(1.5)); err == nil {
		t.Fatal("share > 1 accepted")
	}
	if _, err := ms.Report("nope"); !errors.Is(err, loki.ErrUnknownPipeline) {
		t.Fatalf("Report(nope) = %v, want ErrUnknownPipeline", err)
	}
	if err := ms.Feed("nope", loki.RampTrace(10, 10, 2, 1)); !errors.Is(err, loki.ErrUnknownPipeline) {
		t.Fatalf("Feed(nope) = %v, want ErrUnknownPipeline", err)
	}
	if err := ms.Feed("a", loki.RampTrace(10, 20, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("late", loki.TrafficChainPipeline()); err == nil {
		t.Fatal("registration stayed open after traffic was injected")
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := ms.Feed("a", loki.RampTrace(10, 10, 2, 1)); !errors.Is(err, loki.ErrStopped) {
		t.Fatalf("Feed after Stop = %v, want ErrStopped", err)
	}
}

// The Proteus baseline cannot solve under a server cap, so a shared pool
// must reject it at build time rather than silently oversubscribing.
func TestMultiTenantRejectsUncappablePlanner(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("p", loki.TrafficChainPipeline(),
		loki.WithPipelineBaseline(loki.BaselineProteus)); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("q", loki.TrafficChainPipeline()); err != nil {
		t.Fatal(err)
	}
	err = ms.FeedAll(map[string]*loki.Trace{"p": loki.RampTrace(10, 10, 2, 1)})
	if err == nil || !strings.Contains(err.Error(), "CappedPlanner") {
		t.Fatalf("uncappable planner accepted on a shared pool: %v", err)
	}
}

// An InferLine-managed pipeline can share the pool (it supports capped
// solves), and mixed planners serve side by side.
func TestMultiTenantMixedPlanners(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(20), loki.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("loki", loki.TrafficChainPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("inferline", loki.TrafficChainPipeline(),
		loki.WithPipelineBaseline(loki.BaselineInferLine)); err != nil {
		t.Fatal(err)
	}
	err = ms.FeedAll(map[string]*loki.Trace{
		"loki":      loki.RampTrace(100, 600, 12, 5),
		"inferline": loki.RampTrace(100, 600, 12, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	for name, r := range ms.Reports() {
		if r.Completed == 0 {
			t.Fatalf("pipeline %q served nothing: %s", name, r)
		}
	}
}

// A spike overlay must not mutate the original trace and must scale only
// the window.
func TestTraceWithSpike(t *testing.T) {
	base := loki.RampTrace(100, 100, 10, 1)
	spiked := base.WithSpike(0.5, 0.2, 3)
	for i, q := range base.QPS {
		if q != 100 {
			t.Fatalf("base trace mutated at %d: %v", i, q)
		}
	}
	want := []float64{100, 100, 100, 100, 100, 300, 300, 100, 100, 100}
	for i, q := range spiked.QPS {
		if math.Abs(q-want[i]) > 1e-9 {
			t.Fatalf("spiked[%d] = %v, want %v", i, q, want[i])
		}
	}
}

// Multi-tenant serving on the wall-clock engine: both pipelines' traces play
// concurrently in real (scaled) time; only one housekeeping loop steps the
// joint controller.
func TestMultiTenantWallclock(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run (~3s wall)")
	}
	ms, err := loki.NewMulti(loki.WithServers(16), loki.WithSeed(6),
		loki.WithEngine(loki.Wallclock), loki.WithTimeScale(0.25))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("a", loki.TrafficChainPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("b", loki.TrafficChainPipeline()); err != nil {
		t.Fatal(err)
	}
	err = ms.FeedAll(map[string]*loki.Trace{
		"a": loki.RampTrace(100, 300, 6, 2),
		"b": loki.RampTrace(100, 300, 6, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		snap, err := ms.Snapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Arrivals == 0 || snap.Completed == 0 {
			t.Fatalf("pipeline %q served nothing on the wallclock engine: %+v", name, snap)
		}
		if snap.Completed+snap.Dropped != snap.Arrivals {
			t.Fatalf("pipeline %q conservation: %+v", name, snap)
		}
	}
	grants := ms.Grants()
	if grants["a"]+grants["b"] > 16 {
		t.Fatalf("grants %v exceed the pool", grants)
	}
}
