package loki_test

import (
	"bytes"
	"hash/fnv"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"loki"
)

// telemetryArtifacts is everything one seeded run's telemetry plane produced:
// the public worker rows, the trace export bytes, and the per-worker slice of
// the Prometheus exposition.
type telemetryArtifacts struct {
	workers []loki.WorkerStatus
	traces  []byte
	expo    string
	report  *loki.Report
}

// telemetryRun drives a seeded simulator run under a fault schedule — two
// permanent stragglers plus a crash with a timed recovery — and collects the
// telemetry artifacts. The sample probability is raised so the trace export
// is substantial enough for byte comparison to mean something.
func telemetryRun(t *testing.T, seed int64) telemetryArtifacts {
	t.Helper()
	sys, err := loki.New(loki.TrafficAnalysisPipeline(),
		loki.WithServers(8),
		loki.WithSeed(seed),
		loki.WithTraceSampling(0.25),
		loki.WithFaults(
			loki.FaultEvent{At: 6 * time.Second, Kind: loki.FaultStraggler, N: 2, Factor: 0.25},
			loki.FaultEvent{At: 10 * time.Second, Kind: loki.FaultCrash, N: 1, RecoverAfter: 8 * time.Second},
		))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Feed(loki.RampTrace(60, 60, 8, 3)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Stop(); err != nil {
		t.Fatal(err)
	}
	var traces bytes.Buffer
	if err := sys.WriteTraces(&traces); err != nil {
		t.Fatal(err)
	}
	var expo strings.Builder
	sys.Telemetry().WritePrometheus(&expo)
	return telemetryArtifacts{
		workers: sys.Snapshot().Workers,
		traces:  traces.Bytes(),
		expo:    workerExpositionLines(expo.String()),
		report:  sys.Report(),
	}
}

// workerExpositionLines filters an exposition down to its loki_worker_*
// lines — the engine-clock-driven slice that must be deterministic
// (loki_planner_round_seconds is wall-clock and legitimately varies).
func workerExpositionLines(expo string) string {
	var out []string
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "loki_worker_") ||
			strings.HasPrefix(line, "# HELP loki_worker_") ||
			strings.HasPrefix(line, "# TYPE loki_worker_") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestTelemetryDeterminism pins the telemetry plane's headline guarantee: on
// the simulator the same seed and fault schedule reproduce the collector
// rows, the sampled trace export, and the per-worker exposition byte for
// byte — mirroring TestFaultDeterminism for the observability path. The
// tracer draws from its own seeded stream, so sampling must not perturb the
// serving run either: the Reports must match the usual goldens' shape run
// to run.
func TestTelemetryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full serving runs; skipped in -short")
	}
	a := telemetryRun(t, 7)
	b := telemetryRun(t, 7)
	if !reflect.DeepEqual(a.workers, b.workers) {
		t.Errorf("worker rows diverged:\n%+v\n%+v", a.workers, b.workers)
	}
	if !bytes.Equal(a.traces, b.traces) {
		t.Errorf("trace exports diverged (%d vs %d bytes)", len(a.traces), len(b.traces))
	}
	if a.expo != b.expo {
		t.Errorf("worker exposition diverged:\n%s\n---\n%s", a.expo, b.expo)
	}
	if !reflect.DeepEqual(a.report, b.report) {
		t.Errorf("reports diverged:\n%+v\n%+v", a.report, b.report)
	}

	// The artifacts must be substantive, not identically empty.
	if len(a.workers) != 8 {
		t.Fatalf("want 8 worker rows, got %d", len(a.workers))
	}
	var served int64
	straggling := 0
	for _, w := range a.workers {
		served += w.ServedTotal
		if w.SpeedFactor == 0.25 && w.Live {
			straggling++
		}
		if !w.Live {
			t.Errorf("worker %d still down after recovery: %+v", w.Worker, w)
		}
	}
	if served == 0 {
		t.Error("no worker served anything")
	}
	// Two permanent stragglers were injected; at least one survives the
	// crash/recovery overlap with its 0.25 factor intact and live.
	if straggling == 0 {
		t.Errorf("no live straggler row at factor 0.25: %+v", a.workers)
	}
	if len(a.traces) < 100 {
		t.Errorf("trace export suspiciously small: %q", a.traces)
	}
	if !strings.Contains(a.expo, `loki_worker_queue_depth{class="default",tenant="default",worker="0"}`) {
		t.Errorf("exposition lacks the labeled queue-depth gauge:\n%s", a.expo)
	}
	// Tracing sampled a subset: stage summaries reach the Report.
	if len(a.report.Stages) == 0 {
		t.Error("report carries no stage latency summary")
	}
	if a.report.LatencyP50 <= 0 || a.report.LatencyP99 < a.report.LatencyP50 {
		t.Errorf("latency quantiles implausible: p50=%v p99=%v", a.report.LatencyP50, a.report.LatencyP99)
	}
}

// recordedWorkerExpositionHash is the FNV-1a hash of telemetryRun(t, 7)'s
// loki_worker_* exposition as the collector rendered it when it still pushed
// every event into the registry. Folding the rows at scrape time must render
// the same bytes.
const recordedWorkerExpositionHash = 0xb311f27d90b48ecc

// TestWorkerExpositionMatchesRecorded pins the per-worker exposition of one
// seeded fault run to its recorded hash.
func TestWorkerExpositionMatchesRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("a full serving run; skipped in -short")
	}
	h := fnv.New64a()
	h.Write([]byte(telemetryRun(t, 7).expo))
	if got := h.Sum64(); got != recordedWorkerExpositionHash {
		t.Errorf("worker exposition hash = %#x, want %#x", got, uint64(recordedWorkerExpositionHash))
	}
}

// expositionLine matches one sample line of the Prometheus text format:
// a metric name, an optional sorted label set, and a value.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9.eE+N-]+(Inf|an)?$`)

// TestMetricsEndpoint scrapes GET /metrics off the HTTP front door and
// checks the exposition contract: the version=0.0.4 text content type,
// format-valid lines with HELP/TYPE headers, per-worker gauges labeled by
// tenant/class/worker, and the planner's structured counters.
func TestMetricsEndpoint(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(6), loki.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("traffic", loki.TrafficAnalysisPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := ms.Feed("traffic", loki.RampTrace(40, 40, 4, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	ms.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d, want 200", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition type", ct)
	}
	body := rr.Body.String()
	types := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram") {
				t.Errorf("malformed TYPE header: %q", line)
			}
			types[f[2]] = true
		default:
			if !expositionLine.MatchString(line) {
				t.Errorf("malformed exposition line: %q", line)
			}
		}
	}
	for _, want := range []string{
		`loki_worker_queue_depth{class="default",tenant="traffic",worker="0"}`,
		`loki_worker_occupancy{class="default",tenant="traffic",worker="0"}`,
		`loki_worker_inflight_batch{class="default",tenant="traffic",worker="5"}`,
		`loki_worker_speed_factor{class="default",tenant="traffic",worker="0"} 1`,
		`loki_worker_up{class="default",tenant="traffic",worker="0"} 1`,
		`loki_planner_rounds_total`,
		`loki_planner_grant_servers{tenant="traffic"}`,
		`loki_planner_bb_nodes_total{tenant="traffic"}`,
		`loki_planner_lp_pivots_total{tenant="traffic"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	for _, name := range []string{"loki_worker_queue_depth", "loki_worker_served_total", "loki_planner_rounds_total"} {
		if !types[name] {
			t.Errorf("exposition lacks a TYPE header for %s", name)
		}
	}
}

// TestTelemetryOff pins the WithTelemetry(false) escape hatch: no registry,
// no worker rows, an empty trace export, and no /metrics route.
func TestTelemetryOff(t *testing.T) {
	ms, err := loki.NewMulti(loki.WithServers(4), loki.WithSeed(3), loki.WithTelemetry(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline("traffic", loki.TrafficAnalysisPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := ms.Feed("traffic", loki.RampTrace(20, 20, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	if ms.Telemetry() != nil {
		t.Error("Telemetry() should be nil with telemetry off")
	}
	snap, err := ms.Snapshot("traffic")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Workers != nil {
		t.Errorf("Snapshot.Workers should be nil with telemetry off, got %d rows", len(snap.Workers))
	}
	var traces bytes.Buffer
	if err := ms.WriteTraces(&traces); err != nil {
		t.Fatal(err)
	}
	// One registered pipeline → one empty export object.
	if s := strings.TrimSpace(traces.String()); s != "[\n  {}\n]" {
		t.Errorf("trace export should be one empty object, got %q", s)
	}
	rr := httptest.NewRecorder()
	ms.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 404 {
		t.Errorf("GET /metrics with telemetry off = %d, want 404", rr.Code)
	}
	r, err := ms.Report("traffic")
	if err != nil {
		t.Fatal(err)
	}
	if r.Stages != nil {
		t.Errorf("Report.Stages should be nil with telemetry off, got %+v", r.Stages)
	}
}
