package telemetry

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryExpositionDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b_total", "b help", L("x", "1")).Add(1, 3)
		r.Counter("b_total", "b help", L("x", "2")).Add(2, 1)
		r.Gauge("a_gauge", "a help", nil).Set(3, 2.5)
		h := r.Histogram("c_seconds", "c help", []float64{0.1, 1}, L("t", "q"))
		h.Observe(4, 0.05)
		h.Observe(5, 0.5)
		h.Observe(6, 7)
		return r
	}
	var b1, b2 bytes.Buffer
	build().WritePrometheus(&b1)
	build().WritePrometheus(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge",
		"# TYPE b_total counter",
		"# TYPE c_seconds histogram",
		`b_total{x="1"} 3`,
		`c_seconds_bucket{t="q",le="0.1"} 1`,
		`c_seconds_bucket{t="q",le="1"} 2`,
		`c_seconds_bucket{t="q",le="+Inf"} 3`,
		`c_seconds_count{t="q"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Families must appear in sorted order.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") {
		t.Error("families not sorted by name")
	}
}

func TestRegistryNilIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x", "h", nil).Add(0, 1)
	r.Gauge("y", "h", nil).Set(0, 1)
	r.Histogram("z", "h", []float64{1}, nil).Observe(0, 1)
	if got := r.Gather(); got != nil {
		t.Fatalf("nil registry Gather = %v, want nil", got)
	}
	var b bytes.Buffer
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
}

func TestCollectorWindowMath(t *testing.T) {
	c := NewCollector(nil, "ten", []WorkerClass{{Name: "gpu", Count: 2}})
	// Worker 0: two requests queued, batch of 2 runs 0.5s inside a 1s window.
	c.Enqueue(0.1, 0)
	c.Enqueue(0.2, 0)
	c.BatchStart(0.25, 0, 2)
	c.BatchEnd(0.75, 0, 2)
	c.Sample(1.0)
	rows := c.Rows()
	if rows[0].Occupancy != 0.5 {
		t.Errorf("occupancy = %v, want 0.5", rows[0].Occupancy)
	}
	if rows[0].ServedQPS != 2 {
		t.Errorf("servedQPS = %v, want 2", rows[0].ServedQPS)
	}
	if rows[0].ServedTotal != 2 || rows[0].BatchesTotal != 1 {
		t.Errorf("totals = %+v", rows[0])
	}
	if rows[1].Occupancy != 0 || rows[1].ServedQPS != 0 {
		t.Errorf("idle worker has nonzero window: %+v", rows[1])
	}
	// A still-running batch charges partial busy time to the closing window.
	c.BatchStart(1.2, 0, 1)
	c.Sample(2.0)
	rows = c.Rows()
	if got := rows[0].Occupancy; got < 0.79 || got > 0.81 {
		t.Errorf("partial-batch occupancy = %v, want ~0.8", got)
	}
	if rows[0].InFlightBatch != 1 {
		t.Errorf("inflight = %d, want 1", rows[0].InFlightBatch)
	}
}

func TestCollectorFaultState(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, "ten", []WorkerClass{{Name: "gpu", Count: 1}})
	c.SetSpeed(5, 0, 0.25)
	c.SetDown(6, 0, true)
	rows := c.Rows()
	if rows[0].SpeedFactor != 0.25 || rows[0].Live {
		t.Fatalf("row = %+v, want speed 0.25 live=false", rows[0])
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `loki_worker_speed_factor{class="gpu",tenant="ten",worker="0"} 0.25`) {
		t.Errorf("speed factor not exposed:\n%s", out)
	}
	if !strings.Contains(out, `loki_worker_up{class="gpu",tenant="ten",worker="0"} 0`) {
		t.Errorf("down state not exposed:\n%s", out)
	}
	c.SetDown(7, 0, false)
	if rows := c.Rows(); !rows[0].Live {
		t.Error("worker did not come back up")
	}
}

func TestTracerDeterministicSampling(t *testing.T) {
	run := func() []byte {
		tr := NewTracer("ten", 0.5, 42)
		for i := int64(0); i < 40; i++ {
			rt := tr.Start(i, float64(i))
			if rt == nil {
				continue
			}
			tr.AddSpan(rt, Span{Stage: "detect", Worker: 1, Class: "gpu",
				EnqueuedSec: float64(i), StartSec: float64(i) + 0.01, EndSec: float64(i) + 0.05, Batch: 4})
			tr.Finish(rt, float64(i)+0.06, false, false)
		}
		b, err := tr.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := run(), run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("trace export not byte-reproducible for the same seed")
	}
	if !strings.Contains(string(b1), `"stage": "detect"`) {
		t.Fatalf("export missing spans:\n%s", b1)
	}
	tr := NewTracer("ten", 0.5, 42)
	sampled := 0
	for i := int64(0); i < 40; i++ {
		if tr.Start(i, 0) != nil {
			sampled++
		}
	}
	if sampled == 0 || sampled == 40 {
		t.Fatalf("sampling degenerate: %d/40", sampled)
	}
}

func TestTracerStageSummary(t *testing.T) {
	tr := NewTracer("ten", 1, 1)
	for i := 0; i < 100; i++ {
		rt := tr.Start(int64(i), 0)
		tr.AddSpan(rt, Span{Stage: "s", EnqueuedSec: 0, StartSec: float64(i) / 1000, EndSec: float64(i)/1000 + 0.01, Batch: 2})
		tr.Finish(rt, 1, false, false)
	}
	ss := tr.StageSummary()
	if len(ss) != 1 || ss[0].Stage != "s" || ss[0].Count != 100 {
		t.Fatalf("summary = %+v", ss)
	}
	if ss[0].QueueP50 < 0.049 || ss[0].QueueP50 > 0.051 {
		t.Errorf("queue p50 = %v, want ~0.0495", ss[0].QueueP50)
	}
	if ss[0].ExecP50 < 0.0099 || ss[0].ExecP50 > 0.0101 || ss[0].MeanBatch != 2 {
		t.Errorf("summary = %+v", ss[0])
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	rt := tr.Start(1, 0)
	if rt != nil {
		t.Fatal("nil tracer sampled")
	}
	tr.AddSpan(rt, Span{})
	tr.Finish(rt, 0, false, false)
	if tr.Traces() != nil || tr.StageSummary() != nil {
		t.Fatal("nil tracer returned data")
	}
	if NewTracer("x", 0, 1) != nil {
		t.Fatal("prob 0 should return nil tracer")
	}
}

// Past the worker-metrics limit the collector stops registering per-worker
// series and exposes per-class aggregates instead: counters stay exact via
// shared class series, gauges fold once per Sample, and Rows keeps full
// per-worker detail either way.
func TestCollectorWorkerMetricsLimit(t *testing.T) {
	reg := NewRegistry()
	classes := []WorkerClass{{Name: "gpu", Count: 3}, {Name: "cpu", Count: 2}}
	c := NewCollector(reg, "ten", classes, WithWorkerMetricsLimit(4))

	c.Enqueue(0.1, 0)
	c.Enqueue(0.1, 1)
	c.Enqueue(0.1, 3)
	c.BatchStart(0.2, 0, 1)
	c.BatchEnd(0.7, 0, 1)
	c.Swap(0.8, 3)
	c.SetDown(0.9, 4, true)
	c.Sample(1.0)

	if rows := c.Rows(); len(rows) != 5 || rows[4].Live {
		t.Fatalf("rows lost per-worker detail under the limit: %+v", rows)
	}

	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	if strings.Contains(out, "loki_worker_") {
		t.Fatalf("per-worker series exposed past the limit:\n%s", out)
	}
	for _, want := range []string{
		`loki_class_workers{class="gpu",tenant="ten"} 3`,
		`loki_class_workers{class="cpu",tenant="ten"} 2`,
		`loki_class_queue_depth{class="gpu",tenant="ten"} 1`, // 2 queued, 1 batched off
		`loki_class_queue_depth{class="cpu",tenant="ten"} 1`,
		`loki_class_served_total{class="gpu",tenant="ten"} 1`,
		`loki_class_batches_total{class="gpu",tenant="ten"} 1`,
		`loki_class_swaps_total{class="cpu",tenant="ten"} 1`,
		`loki_class_live{class="cpu",tenant="ten"} 1`,
		`loki_class_live{class="gpu",tenant="ten"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing aggregate series %q in:\n%s", want, out)
		}
	}

	// At or under the limit (and with 0 = unlimited) the per-worker series
	// remain.
	reg2 := NewRegistry()
	NewCollector(reg2, "ten", classes, WithWorkerMetricsLimit(0))
	var b2 bytes.Buffer
	reg2.WritePrometheus(&b2)
	if !strings.Contains(b2.String(), `loki_worker_up{class="gpu",tenant="ten",worker="0"}`) {
		t.Fatalf("unlimited collector lost per-worker series:\n%s", b2.String())
	}
}

// The rows are the state and a scrape folds them, so with no Sample between
// events a scrape reads the current queue depth and in-flight batch, in both
// exposition modes.
func TestCollectorScrapeIsCurrent(t *testing.T) {
	for _, tc := range []struct {
		limit          int
		queue, inbatch string
	}{
		{0, `loki_worker_queue_depth{class="gpu",tenant="ten",worker="1"} 2`, `loki_worker_inflight_batch{class="gpu",tenant="ten",worker="1"} 3`},
		{1, `loki_class_queue_depth{class="gpu",tenant="ten"} 2`, `loki_class_inflight_batch{class="gpu",tenant="ten"} 3`},
	} {
		reg := NewRegistry()
		c := NewCollector(reg, "ten", []WorkerClass{{Name: "gpu", Count: 2}}, WithWorkerMetricsLimit(tc.limit))
		c.Sample(1)
		for i := 0; i < 5; i++ {
			c.Enqueue(1.1, 1)
		}
		c.BatchStart(1.2, 1, 3)
		var b bytes.Buffer
		reg.WritePrometheus(&b)
		for _, want := range []string{tc.queue, tc.inbatch} {
			if !strings.Contains(b.String(), want) {
				t.Errorf("limit %d: scrape lacks %q in:\n%s", tc.limit, want, b.String())
			}
		}
		for _, p := range reg.Gather() {
			if strings.Contains(p.Name, "queue_depth") && p.AtSec != 1.2 {
				t.Errorf("limit %d: %s%s stamped at %v, want the last event's 1.2", tc.limit, p.Name, p.Labels, p.AtSec)
			}
		}
	}
}

// playEvents drives one seeded script of every collector hook, with a Sample
// every 50 events, into each of the collectors.
func playEvents(seed int64, workers int, cols ...*Collector) {
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= 2000; i++ {
		now, w := float64(i)*0.01, rng.Intn(workers)
		op, arg := rng.Intn(8), rng.Intn(4)
		for _, c := range cols {
			switch op {
			case 0, 1:
				c.Enqueue(now, w)
			case 2:
				c.BatchStart(now, w, 1+arg)
			case 3:
				c.BatchEnd(now, w, arg)
			case 4:
				c.QueueCleared(now, w)
			case 5:
				c.Swap(now, w)
			case 6:
				c.SetSpeed(now, w, []float64{0.25, 0.5, 1, 1}[arg])
			case 7:
				c.SetDown(now, w, arg == 0)
			}
			if i%50 == 0 {
				c.Sample(now)
			}
		}
	}
}

// An aggregate-mode collector's loki_class_* series equal the per-class sums
// of a per-worker collector's loki_worker_* series on the same events, and
// the per-class means for occupancy and speed.
func TestAggregateFoldMatchesPerWorkerSums(t *testing.T) {
	classes := []WorkerClass{{Name: "gpu", Count: 4}, {Name: "cpu", Count: 3}}
	regW, regA := NewRegistry(), NewRegistry()
	perWorker := NewCollector(regW, "ten", classes, WithWorkerMetricsLimit(0))
	agg := NewCollector(regA, "ten", classes, WithWorkerMetricsLimit(1))
	playEvents(5, 7, perWorker, agg)

	classOf := regexp.MustCompile(`class="([^"]*)"`)
	sums := map[string]float64{} // class family name + labels → summed worker value
	for _, p := range regW.Gather() {
		if !strings.HasPrefix(p.Name, "loki_worker_") {
			continue
		}
		name := map[string]string{"loki_worker_up": "loki_class_live"}[p.Name]
		if name == "" {
			name = "loki_class_" + strings.TrimPrefix(p.Name, "loki_worker_")
		}
		sums[name+`{class="`+classOf.FindStringSubmatch(p.Labels)[1]+`",tenant="ten"}`] += p.Value
	}
	count := map[string]float64{"gpu": 4, "cpu": 3}
	checked := 0
	for _, p := range regA.Gather() {
		if strings.HasPrefix(p.Name, "loki_worker_") {
			t.Fatalf("aggregate collector exposes %s", p.Name)
		}
		if !strings.HasPrefix(p.Name, "loki_class_") || p.Name == "loki_class_workers" {
			continue
		}
		want := sums[p.Name+p.Labels]
		if p.Name == "loki_class_occupancy" || p.Name == "loki_class_speed_factor" {
			want /= count[classOf.FindStringSubmatch(p.Labels)[1]]
		}
		if math.Abs(p.Value-want) > 1e-9 {
			t.Errorf("%s%s = %v, per-worker fold gives %v", p.Name, p.Labels, p.Value, want)
		}
		checked++
	}
	if checked != 2*nSeries {
		t.Fatalf("compared %d aggregate series, want %d", checked, 2*nSeries)
	}
	if sums[`loki_class_served_total{class="gpu",tenant="ten"}`] == 0 || sums[`loki_class_occupancy{class="cpu",tenant="ten"}`] == 0 {
		t.Fatalf("the script left the compared series empty: %v", sums)
	}
}

// TestCollectorConcurrentScrape drives events on two collectors of one
// registry from four goroutines while two more scrape, as the wall-clock
// engine's workers do while /metrics is read; run it with -race. A final
// scrape's counters equal the rows' totals.
func TestCollectorConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	cols := []*Collector{
		NewCollector(reg, "a", []WorkerClass{{Name: "gpu", Count: 6}}),
		NewCollector(reg, "b", []WorkerClass{{Name: "gpu", Count: 6}}, WithWorkerMetricsLimit(2)),
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cols[g%2]
			for i := 0; time.Now().Before(deadline); i++ {
				now, w := float64(i)*1e-3, (g+i)%6
				c.Enqueue(now, w)
				c.BatchStart(now, w, 1)
				c.BatchEnd(now, w, 1)
				if i%100 == 0 {
					c.Swap(now, w)
					c.Sample(now)
				}
			}
		}(g)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if s == 0 {
					reg.WritePrometheus(io.Discard)
				} else {
					reg.Gather()
				}
			}
		}(s)
	}
	wg.Wait()

	tenantOf := regexp.MustCompile(`tenant="([^"]*)"`)
	served := map[string]float64{}
	for _, p := range reg.Gather() {
		if p.Name == "loki_worker_served_total" || p.Name == "loki_class_served_total" {
			served[tenantOf.FindStringSubmatch(p.Labels)[1]] += p.Value
		}
	}
	for _, c := range cols {
		var rows int64
		for _, r := range c.Rows() {
			rows += r.ServedTotal
		}
		if got := served[c.tenant]; got != float64(rows) || rows == 0 {
			t.Errorf("tenant %s: exposed served total %v, rows hold %d", c.tenant, got, rows)
		}
	}
}
