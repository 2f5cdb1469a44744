package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestViolationRatioCountsLateAndDropped(t *testing.T) {
	c := NewCollector(10, 4)
	for i := 0; i < 10; i++ {
		c.Arrival(1)
	}
	for i := 0; i < 6; i++ {
		c.Completed(2, false, 0.1, 0.9)
	}
	c.Completed(2, true, 0.4, 0.8) // late
	c.Dropped(3, 1)
	c.Dropped(3, 1)
	c.Dropped(3, 1)
	s := c.Summarize()
	if s.Arrivals != 10 || s.Completed != 6 || s.Late != 1 || s.Dropped != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.ViolationRatio-0.4) > 1e-12 {
		t.Fatalf("violation ratio = %g, want 0.4", s.ViolationRatio)
	}
}

// Violations are charged to the bucket the request arrived in, even when the
// late completion or drop lands in a later bucket — the pairing that makes
// windowed attainment exact.
func TestViolationsAttributedToArrivalBucket(t *testing.T) {
	c := NewCollector(10, 4)
	c.Arrival(9.5)
	c.Completed(10.2, true, 0.7, 1.0) // arrived 9.5, completed late next bucket
	c.Arrival(9.8)
	c.Dropped(11, 9.8) // dropped in the next bucket too
	pts := c.Series()
	if len(pts) != 2 {
		t.Fatalf("got %d buckets, want 2", len(pts))
	}
	if pts[0].Arrivals != 2 || pts[0].Violations != 2 {
		t.Fatalf("arrival bucket: arrivals=%d violations=%d, want 2/2", pts[0].Arrivals, pts[0].Violations)
	}
	if pts[1].Violations != 0 {
		t.Fatalf("completion bucket charged %d violations, want 0", pts[1].Violations)
	}
	// Completion-time attribution of the legacy fields is unchanged: the
	// late answer is served in bucket 1 (ServedQPS = 1 answer / 10 s), not
	// in the arrival bucket.
	if pts[0].ServedQPS != 0 || math.Abs(pts[1].ServedQPS-0.1) > 1e-12 {
		t.Fatalf("legacy served attribution moved: served=%g,%g want 0,0.1", pts[0].ServedQPS, pts[1].ServedQPS)
	}
}

func TestAccuracyAveragesOverAnswered(t *testing.T) {
	c := NewCollector(10, 4)
	c.Arrival(0)
	c.Arrival(0)
	c.Completed(1, false, 0.1, 0.8)
	c.Completed(1, true, 0.3, 1.0)
	s := c.Summarize()
	if math.Abs(s.MeanAccuracy-0.9) > 1e-12 {
		t.Fatalf("accuracy = %g, want 0.9", s.MeanAccuracy)
	}
	if math.Abs(s.MeanLatency-0.2) > 1e-12 {
		t.Fatalf("latency = %g, want 0.2", s.MeanLatency)
	}
}

func TestNaNAccuracySkipped(t *testing.T) {
	c := NewCollector(10, 4)
	c.Arrival(0)
	c.Completed(1, false, 0.1, math.NaN())
	s := c.Summarize()
	if s.MeanAccuracy != 0 {
		t.Fatalf("NaN accuracy leaked into the mean: %g", s.MeanAccuracy)
	}
}

func TestUtilizationFromServerSamples(t *testing.T) {
	c := NewCollector(10, 20)
	c.SampleServers(1, 10)
	c.SampleServers(2, 10)
	if p := c.Series()[0]; math.Abs(p.Utilization-0.5) > 1e-12 {
		t.Fatalf("utilization = %g, want 0.5", p.Utilization)
	}
}

func TestSeriesBucketsByTime(t *testing.T) {
	c := NewCollector(10, 4)
	c.Arrival(5)
	c.Completed(5, false, 0.1, 1.0)
	c.Arrival(15)
	c.Dropped(15, 15)
	c.SampleDemand(5, 100)
	c.SampleDemand(15, 200)
	pts := c.Series()
	if len(pts) != 2 {
		t.Fatalf("got %d buckets, want 2", len(pts))
	}
	if pts[0].ViolationRatio != 0 || pts[1].ViolationRatio != 1 {
		t.Fatalf("bucket violation ratios = %g, %g", pts[0].ViolationRatio, pts[1].ViolationRatio)
	}
	if pts[0].DemandQPS != 100 || pts[1].DemandQPS != 200 {
		t.Fatalf("bucket demands = %g, %g", pts[0].DemandQPS, pts[1].DemandQPS)
	}
}

func TestMinAccuracyTracksWorstBucket(t *testing.T) {
	c := NewCollector(10, 4)
	c.Arrival(1)
	c.Completed(1, false, 0.1, 1.0)
	c.Arrival(11)
	c.Completed(11, false, 0.1, 0.7)
	s := c.Summarize()
	if math.Abs(s.MinAccuracy-0.7) > 1e-12 {
		t.Fatalf("min accuracy = %g, want 0.7", s.MinAccuracy)
	}
}

func TestNegativeTimeClampsToFirstBucket(t *testing.T) {
	c := NewCollector(10, 4)
	c.Arrival(-5)
	if c.Summarize().Arrivals != 1 {
		t.Fatal("negative-time arrival lost")
	}
}

func TestFormatSeriesHasHeaderAndRows(t *testing.T) {
	c := NewCollector(10, 4)
	c.Arrival(0)
	c.Completed(1, false, 0.1, 0.5)
	out := FormatSeries(c.Series())
	if !strings.Contains(out, "slo-viol") {
		t.Fatal("missing header")
	}
	if got := strings.Count(out, "\n"); got != 2 {
		t.Fatalf("got %d lines, want 2 (header + 1 row)", got)
	}
}

// TestSummaryConservation: completed + late + dropped never exceeds
// arrivals when events are recorded consistently.
func TestSummaryConservation(t *testing.T) {
	f := func(nOK, nLate, nDrop uint8) bool {
		c := NewCollector(5, 4)
		total := int(nOK) + int(nLate) + int(nDrop)
		for i := 0; i < total; i++ {
			c.Arrival(float64(i % 50))
		}
		for i := 0; i < int(nOK); i++ {
			c.Completed(float64(i%50), false, 0.1, 1)
		}
		for i := 0; i < int(nLate); i++ {
			c.Completed(float64(i%50), true, 0.6, 1)
		}
		for i := 0; i < int(nDrop); i++ {
			c.Dropped(float64(i%50), float64(i%50))
		}
		s := c.Summarize()
		if s.Completed+s.Late+s.Dropped != s.Arrivals {
			return false
		}
		if total > 0 && (s.ViolationRatio < 0 || s.ViolationRatio > 1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Merge must sum counts, recompute the violation ratio, and weight accuracy
// and latency by answered requests.
func TestMergeSummaries(t *testing.T) {
	a := Summary{
		Arrivals: 100, Completed: 80, Late: 10, Dropped: 10,
		ViolationRatio: 0.2, MeanAccuracy: 0.9, MinAccuracy: 0.85,
		MeanLatency: 0.1,
		MeanServers: 6, MinServers: 4, MaxServers: 8,
	}
	b := Summary{
		Arrivals: 300, Completed: 270, Late: 0, Dropped: 30,
		ViolationRatio: 0.1, MeanAccuracy: 0.8, MinAccuracy: 0.7,
		MeanLatency: 0.2,
		MeanServers: 10, MinServers: 9, MaxServers: 12,
	}
	m := Merge(a, b)
	if m.Arrivals != 400 || m.Completed != 350 || m.Late != 10 || m.Dropped != 40 {
		t.Fatalf("count sums wrong: %+v", m)
	}
	if want := 50.0 / 400; m.ViolationRatio != want {
		t.Fatalf("ViolationRatio = %v, want %v", m.ViolationRatio, want)
	}
	// 90 answered at 0.9, 270 answered at 0.8.
	if want := (90*0.9 + 270*0.8) / 360; math.Abs(m.MeanAccuracy-want) > 1e-12 {
		t.Fatalf("MeanAccuracy = %v, want %v", m.MeanAccuracy, want)
	}
	if want := (90*0.1 + 270*0.2) / 360; math.Abs(m.MeanLatency-want) > 1e-12 {
		t.Fatalf("MeanLatency = %v, want %v", m.MeanLatency, want)
	}
	if m.MinAccuracy != 0.7 {
		t.Fatalf("extrema wrong: %+v", m)
	}
	if m.MeanServers != 16 || m.MinServers != 13 || m.MaxServers != 20 {
		t.Fatalf("server sums wrong: %+v", m)
	}
	if got := Merge(); got.Arrivals != 0 || got.ViolationRatio != 0 {
		t.Fatalf("empty merge not zero: %+v", got)
	}
}

// Merge has silently dropped newly added count fields before (a field added to
// Summary without a matching line in Merge just vanishes from aggregates).
// This test walks every int field reflectively: seed two summaries with
// distinct nonzero values in each, merge, and require the sum — so a future
// field that Merge forgets fails here by name.
func TestMergeSumsEveryIntField(t *testing.T) {
	mk := func(base int) Summary {
		var s Summary
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Int {
				v.Field(i).SetInt(int64(base + i))
			}
		}
		return s
	}
	a, b := mk(10), mk(1000)
	m := Merge(a, b)
	va, vb, vm := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(m)
	typ := reflect.TypeOf(a)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Int {
			continue
		}
		want := va.Field(i).Int() + vb.Field(i).Int()
		if got := vm.Field(i).Int(); got != want {
			t.Errorf("Merge dropped Summary.%s: got %d, want %d", typ.Field(i).Name, got, want)
		}
	}
}

// Merge must sum latency histograms elementwise and recompute the quantiles
// from the pooled population — a histogram bucket Merge drops would skew
// every aggregate latency percentile.
func TestMergeLatencyHistogram(t *testing.T) {
	a := NewCollector(30, 4)
	b := NewCollector(30, 4)
	for i := 0; i < 90; i++ {
		a.Completed(1, false, 0.02, 1.0) // bucket le=0.025
	}
	for i := 0; i < 10; i++ {
		b.Completed(1, true, 2.0, 1.0) // bucket le=2.5
	}
	sa, sb := a.Summarize(), b.Summarize()
	if sa.LatencyP50 <= 0.01 || sa.LatencyP50 > 0.025 {
		t.Fatalf("per-tenant LatencyP50 = %g, want in (0.01, 0.025]", sa.LatencyP50)
	}
	m := Merge(sa, sb)
	if len(m.latencyHistogram) != len(latencyBounds)+1 {
		t.Fatalf("merged histogram has %d buckets, want %d", len(m.latencyHistogram), len(latencyBounds)+1)
	}
	var total int64
	for _, n := range m.latencyHistogram {
		total += n
	}
	if total != 100 {
		t.Fatalf("merged histogram holds %d answers, want 100", total)
	}
	// The p50 of the pooled population stays in a's bucket; the p99 lands in
	// b's slow bucket — so the quantiles really were recomputed, not copied.
	if m.LatencyP50 <= 0.01 || m.LatencyP50 > 0.025 {
		t.Fatalf("merged LatencyP50 = %g, want in (0.01, 0.025]", m.LatencyP50)
	}
	if m.LatencyP99 <= 1 || m.LatencyP99 > 2.5 {
		t.Fatalf("merged LatencyP99 = %g, want in (1, 2.5]", m.LatencyP99)
	}
}

// Shed requests are accounted beside, not inside, the admitted population.
func TestShedAndAdmittedCounters(t *testing.T) {
	c := NewCollector(10, 4)
	for i := 0; i < 3; i++ {
		c.Arrival(1)
		c.Admitted(1)
	}
	c.Shed(2)
	c.Shed(12) // next bucket
	s := c.Summarize()
	if s.Arrivals != 3 || s.Admitted != 3 || s.Shed != 2 {
		t.Fatalf("summary = %+v, want arrivals=admitted=3 shed=2", s)
	}
	pts := c.Series()
	if len(pts) != 2 || pts[0].Shed != 1 || pts[1].Shed != 1 {
		t.Fatalf("per-bucket shed = %+v", pts)
	}
}

// GoodputQPS counts only on-time completions; ServedQPS keeps counting both.
func TestGoodputExcludesLate(t *testing.T) {
	c := NewCollector(10, 4)
	c.Arrival(0)
	c.Arrival(0)
	c.Completed(1, false, 0.1, 1.0)
	c.Completed(1, true, 0.6, 1.0)
	pts := c.Series()
	if math.Abs(pts[0].ServedQPS-0.2) > 1e-12 {
		t.Fatalf("ServedQPS = %g, want 0.2", pts[0].ServedQPS)
	}
	if math.Abs(pts[0].GoodputQPS-0.1) > 1e-12 {
		t.Fatalf("GoodputQPS = %g, want 0.1 (the on-time answer only)", pts[0].GoodputQPS)
	}
}
