package loki_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"loki"
)

// eventLog collects fault-observer callbacks. The observer may fire from an
// engine goroutine, so access is locked.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) observe(timeSec float64, event string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf("t=%.0f %s", timeSec, event))
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

// chaosReports runs the canonical chaos scenario on the simulator: two
// pipelines share a reserved+spot pool, the spot class suffers a mid-run
// outage with a timed recovery, and admission control fronts both tenants.
// It returns the per-pipeline reports and the observed fault events.
func chaosReports(t *testing.T, seed int64, tiered bool) (map[string]*loki.Report, []string) {
	t.Helper()
	return chaosRun(t, seed, tiered, loki.FaultEvent{
		At: 12 * time.Second, Kind: loki.FaultOutage,
		Class: "spot", RecoverAfter: 12 * time.Second,
	})
}

// chaosRun plays the chaos scenario's two tenants, pool and trace under the
// given fault schedule.
func chaosRun(t *testing.T, seed int64, tiered bool, faults ...loki.FaultEvent) (map[string]*loki.Report, []string) {
	t.Helper()
	var log eventLog
	ms, err := loki.NewMulti(
		loki.WithSeed(seed),
		loki.WithHardware(
			loki.HardwareClass{Name: "res", Count: 8, Speed: 1.0},
			loki.HardwareClass{Name: "spot", Count: 4, Speed: 1.0},
		),
		loki.WithAdmission(true),
		// The InferLine baseline skips the MILP MaxCapacity bisection at
		// build time (≈1 s per tenant on a 2-vCPU Xeon); tiers, live-count
		// re-planning, and admission shedding are arbiter-level and
		// identical under it.
		loki.WithBaseline(loki.BaselineInferLine),
		loki.WithFaults(faults...),
		loki.WithFaultObserver(log.observe),
	)
	if err != nil {
		t.Fatal(err)
	}
	goldTier, freeTier := 0, 0
	if tiered {
		goldTier = 1
	}
	slo := 250 * time.Millisecond
	if err := ms.AddPipeline("gold", loki.TrafficAnalysisPipeline(),
		loki.WithTier(goldTier, slo)); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("free", loki.TrafficAnalysisPipeline(),
		loki.WithTier(freeTier, slo)); err != nil {
		t.Fatal(err)
	}
	// 95 QPS per pipeline fits the healthy 12-server pool with room to
	// spare but overflows the 8 survivors of the spot outage — contention
	// comes from the fault, not from baseline overload.
	steady := loki.RampTrace(95, 95, 10, 4)
	if err := ms.FeedAll(map[string]*loki.Trace{"gold": steady, "free": steady}); err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	return ms.Reports(), log.snapshot()
}

// TestFaultDeterminism pins the injector's headline guarantee: on the
// simulator the same seed and the same fault schedule reproduce the same run
// bit for bit — whole Reports by DeepEqual, rendered reports by bytes, and
// the fault event log verbatim.
func TestFaultDeterminism(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full chaos runs; skipped in -short and race builds")
	}
	r1, ev1 := chaosReports(t, 11, true)
	r2, ev2 := chaosReports(t, 11, true)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("fault event logs diverged:\n%v\n%v", ev1, ev2)
	}
	for _, name := range []string{"gold", "free"} {
		if !reflect.DeepEqual(r1[name], r2[name]) {
			t.Errorf("pipeline %q reports diverged:\n%+v\n%+v", name, r1[name], r2[name])
		}
		if r1[name].String() != r2[name].String() {
			t.Errorf("pipeline %q rendered reports differ:\n%s\n%s", name, r1[name], r2[name])
		}
	}
	if len(ev1) != 2 {
		t.Fatalf("want outage + recovery events, got %v", ev1)
	}
	if !strings.Contains(ev1[0], "outage spot") || !strings.Contains(ev1[1], "recover spot") {
		t.Errorf("unexpected event log: %v", ev1)
	}
}

// chaosPin is the part of a chaos run's Report pinned to recorded values.
type chaosPin struct {
	Arrivals, Completed, Late, Dropped, Shed int64
	Accuracy                                 float64
	LatencyP99                               time.Duration
}

func pinOf(r *loki.Report) chaosPin {
	return chaosPin{r.Arrivals, r.Completed, r.Late, r.Dropped, r.Shed, r.Accuracy, r.LatencyP99}
}

// TestChaosMatchesRecordedRuns pins two fault schedules to the reports the
// simulator produced before its request path recycled subrequests and
// batches. An object released while still referenced misbehaves the same way
// on every run, so TestFaultDeterminism cannot see it; a recorded run can.
// The outage loses a spot batch mid-execution and clears queues; the crash
// plus straggler schedule lands batch completions on a crashed worker's
// stale generation.
func TestChaosMatchesRecordedRuns(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full chaos runs; skipped in -short and race builds")
	}
	crashStraggle, err := loki.ParseFaults("crash@8s:n=3:recover=6s,straggle@5s:n=2:factor=0.25")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		faults []loki.FaultEvent
		want   map[string]chaosPin
	}{
		{"outage", nil, map[string]chaosPin{
			"gold": {Arrivals: 3740, Completed: 3578, Late: 131, Dropped: 31, Shed: 5, Accuracy: 1, LatencyP99: 429217557},
			"free": {Arrivals: 3465, Completed: 2611, Late: 643, Dropped: 211, Shed: 300, Accuracy: 1, LatencyP99: 801585365},
		}},
		{"crash+straggle", crashStraggle, map[string]chaosPin{
			"gold": {Arrivals: 3745, Completed: 3614, Late: 130, Dropped: 1, Shed: 0, Accuracy: 1, LatencyP99: 427999999},
			"free": {Arrivals: 3573, Completed: 3119, Late: 432, Dropped: 22, Shed: 192, Accuracy: 1, LatencyP99: 766381578},
		}},
	} {
		var reps map[string]*loki.Report
		if tc.faults == nil {
			reps, _ = chaosReports(t, 11, true)
		} else {
			reps, _ = chaosRun(t, 11, true, tc.faults...)
		}
		for name, want := range tc.want {
			if got := pinOf(reps[name]); got != want {
				t.Errorf("%s %s: got %#v, want %#v", tc.name, name, got, want)
			}
		}
	}
}

// badness is a report's total SLO damage: requests shed at the front door,
// dropped in the system, or answered late.
func badness(r *loki.Report) int64 { return r.Shed + r.Dropped + r.Late }

// TestTieredOutageShedsLowTierFirst checks the degradation order: with the
// spot class down the pool cannot cover both pipelines, so the tiered run
// must concentrate the damage on the tier-0 pipeline — mostly as graceful
// front-door shedding — while the tier-1 pipeline rides out the outage with
// a low violation ratio. The untiered control gives the same pipeline no
// such protection.
func TestTieredOutageShedsLowTierFirst(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two full chaos runs; skipped in -short and race builds")
	}
	tiered, _ := chaosReports(t, 11, true)
	g, f := tiered["gold"], tiered["free"]
	if g.Completed == 0 || f.Completed == 0 {
		t.Fatalf("chaos run served nothing: gold=%+v free=%+v", g, f)
	}
	t.Logf("tiered: gold bad=%d (shed=%d viol=%.3f) free bad=%d (shed=%d)",
		badness(g), g.Shed, g.SLOViolationRatio, badness(f), f.Shed)
	if badness(f) <= badness(g) {
		t.Errorf("tiered outage should degrade the low tier first: gold bad=%d, free bad=%d",
			badness(g), badness(f))
	}
	if f.Shed <= g.Shed {
		t.Errorf("the low tier's damage should be graceful shedding: gold shed %d, free shed %d",
			g.Shed, f.Shed)
	}
	if g.SLOViolationRatio > 0.15 {
		t.Errorf("the high tier should ride out the outage, violation ratio %.3f", g.SLOViolationRatio)
	}
	untiered, _ := chaosReports(t, 11, false)
	ug := untiered["gold"]
	t.Logf("untiered: gold bad=%d (shed=%d viol=%.3f)", badness(ug), ug.Shed, ug.SLOViolationRatio)
	if badness(ug) <= badness(g) {
		t.Errorf("tiering should improve the high tier's outage: tiered bad=%d, untiered bad=%d",
			badness(g), badness(ug))
	}
}

// TestParseFaultsPublic exercises the exported CLI-grammar parser.
func TestParseFaultsPublic(t *testing.T) {
	evs, err := loki.ParseFaults("crash@30s:class=a100:n=2:recover=20s,outage@60:class=spot,straggle@10s:n=4:factor=0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := []loki.FaultEvent{
		{At: 30 * time.Second, Kind: loki.FaultCrash, Class: "a100", N: 2, RecoverAfter: 20 * time.Second},
		{At: 60 * time.Second, Kind: loki.FaultOutage, Class: "spot"},
		{At: 10 * time.Second, Kind: loki.FaultStraggler, N: 4, Factor: 0.25},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Errorf("ParseFaults mismatch:\n got %+v\nwant %+v", evs, want)
	}
	if evs, err := loki.ParseFaults(""); err != nil || evs != nil {
		t.Errorf("empty spec should be (nil, nil), got (%v, %v)", evs, err)
	}
	for _, bad := range []string{"meteor@10s", "crash@-5s", "crash@10s:n=zero", "crash@1e11:n=1", "crash@1e300", "crash@10s:recover=1e11"} {
		if _, err := loki.ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) should fail", bad)
		}
	}
}

// TestProteusRefusesFaults: a faulted round plans within the servers left
// up, which the Proteus baseline cannot, so Serve refuses the combination
// with an error that names the baseline instead of failing mid-run.
func TestProteusRefusesFaults(t *testing.T) {
	_, err := loki.Serve(loki.TrafficAnalysisPipeline(), loki.RampTrace(100, 100, 4, 1),
		loki.WithBaseline(loki.BaselineProteus),
		loki.WithFaults(loki.FaultEvent{At: time.Second, Kind: loki.FaultCrash, N: 2}))
	if err == nil || !strings.Contains(err.Error(), "proteus") {
		t.Fatalf("Serve with Proteus under faults: err %v, want a refusal naming proteus", err)
	}
}

// TestWallclockCrashRecover is the live-engine end-to-end: real goroutine
// workers, a mid-run two-server crash with a timed recovery, and the system
// must keep serving through it and report every server back up afterwards.
// Run under -race in CI; assertions are timing-lenient (counts and liveness,
// never latency).
func TestWallclockCrashRecover(t *testing.T) {
	var log eventLog
	sys, err := loki.New(loki.TrafficAnalysisPipeline(),
		loki.WithSeed(4),
		loki.WithServers(8),
		loki.WithEngine(loki.Wallclock),
		loki.WithTimeScale(0.05),
		loki.WithFaults(loki.FaultEvent{
			At: 2 * time.Second, Kind: loki.FaultCrash, N: 2, RecoverAfter: 2 * time.Second,
		}),
		loki.WithFaultObserver(log.observe),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Feed(loki.RampTrace(120, 120, 8, 1)); err != nil {
		t.Fatal(err)
	}
	// The fault timeline runs on scaled wall time; wait (generously) for the
	// crash and its recovery before shutting down.
	deadline := time.Now().Add(10 * time.Second)
	for len(log.snapshot()) < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	snap := sys.Snapshot()
	if err := sys.Stop(); err != nil {
		t.Fatal(err)
	}
	events := log.snapshot()
	if len(events) != 2 || !strings.Contains(events[0], "crash") || !strings.Contains(events[1], "recover") {
		t.Fatalf("want crash then recover, got %v", events)
	}
	if snap.LiveServers != 8 {
		t.Errorf("after recovery every server should be live, got %d/8", snap.LiveServers)
	}
	rep := sys.Report()
	if rep.Completed == 0 {
		t.Errorf("system served nothing through the crash: %+v", rep)
	}
}

// Every Snapshot on the wall-clock engine describes one instant. A goroutine
// snapshots in a loop while the pacer serves a ramp that forces re-plans on a
// two-class pool and a crash takes two servers down and brings them back;
// each snapshot's request totals, per-class active counts, live counts and
// worker rows must agree with one another.
func TestWallclockSnapshotIsOneInstant(t *testing.T) {
	var log eventLog
	sys, err := loki.New(loki.TrafficAnalysisPipeline(),
		loki.WithSeed(4),
		loki.WithHardware(
			loki.HardwareClass{Name: "fast", Count: 4, Speed: 1.5},
			loki.HardwareClass{Name: "slow", Count: 6, Speed: 1.0},
		),
		loki.WithEngine(loki.Wallclock),
		loki.WithTimeScale(0.05),
		loki.WithFaults(loki.FaultEvent{
			At: 2 * time.Second, Kind: loki.FaultCrash, Class: "slow", N: 2, RecoverAfter: 3 * time.Second,
		}),
		loki.WithFaultObserver(log.observe),
	)
	if err != nil {
		t.Fatal(err)
	}
	check := func(s loki.Snapshot) bool {
		byClass := 0
		for _, n := range s.ActiveServersByClass {
			byClass += n
		}
		granted := 0
		for _, n := range s.GrantedServersByClass {
			granted += n
		}
		assigned := 0
		for _, w := range s.Workers {
			if w.Assigned != "" {
				assigned++
			}
		}
		if s.InFlight != s.Arrivals-s.Completed-s.Dropped || s.InFlight < 0 ||
			s.ActiveServers != byClass || s.ActiveServers > s.LiveServers || assigned != s.ActiveServers ||
			s.GrantedServers != granted {
			t.Errorf("snapshot at t=%.3f disagrees with itself: in flight %d of %d arrivals (%d completed, %d dropped); "+
				"active %d, by class %v, live %d; %d worker rows assigned; granted %d, by class %v",
				s.TimeSec, s.InFlight, s.Arrivals, s.Completed, s.Dropped,
				s.ActiveServers, s.ActiveServersByClass, s.LiveServers, assigned,
				s.GrantedServers, s.GrantedServersByClass)
			return false
		}
		return true
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var snaps, degraded int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			s := sys.Snapshot()
			if !check(s) {
				return
			}
			snaps++
			if s.LiveServers < 10 {
				degraded++
			}
		}
	}()
	if err := sys.Feed(loki.RampTrace(40, 400, 8, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(log.snapshot()) < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	if err := sys.Stop(); err != nil {
		t.Fatal(err)
	}
	check(sys.Snapshot())
	if events := log.snapshot(); len(events) != 2 {
		t.Fatalf("want crash then recover, got %v", events)
	}
	if degraded == 0 {
		t.Errorf("none of %d snapshots saw the crash", snaps)
	}
	t.Logf("%d snapshots, %d during the crash, %d allocations", snaps, degraded, sys.Snapshot().Allocates)
}
