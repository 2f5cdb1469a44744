package loki_test

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"loki"
)

// Every public entry point below reaches the run it configures: an option
// changes a short seeded Report against the same run without it, the diurnal
// trace shapes the demand the run records, and the HTTP front door admits a
// request until Drain turns it away.
func TestEntryPointsReachTheRun(t *testing.T) {
	tr := func() *loki.Trace { return loki.AzureTrace(1, 12, 5, 700) }
	type run func() (*loki.Report, error)
	serve := func(opts ...loki.Option) run {
		return func() (*loki.Report, error) {
			return loki.Serve(loki.TrafficAnalysisPipeline(), tr(),
				append([]loki.Option{loki.WithServers(20), loki.WithSeed(3)}, opts...)...)
		}
	}
	multi := func(opts ...loki.PipelineOption) run {
		return func() (*loki.Report, error) {
			ms, err := loki.NewMulti(loki.WithServers(20), loki.WithSeed(3))
			if err != nil {
				return nil, err
			}
			if err := ms.AddPipeline("p", loki.TrafficAnalysisPipeline(), opts...); err != nil {
				return nil, err
			}
			if err := ms.Feed("p", tr()); err != nil {
				return nil, err
			}
			if err := ms.Stop(); err != nil {
				return nil, err
			}
			return ms.Report("p")
		}
	}
	differs := func(without, with run) func(*testing.T) {
		return func(t *testing.T) {
			a, err := without()
			if err != nil {
				t.Fatal(err)
			}
			b, err := with()
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, b) {
				t.Fatalf("the run is the same with and without the entry point:\n%v", a)
			}
		}
	}
	trend := func(opts ...loki.ForecastOption) run { return serve(loki.WithForecaster(loki.ForecastTrend, opts...)) }
	holtWinters := func(opts ...loki.ForecastOption) run {
		return serve(loki.WithForecaster(loki.ForecastHoltWinters, opts...))
	}

	rows := []struct {
		name  string
		check func(*testing.T)
	}{
		{"WithNetworkLatency", differs(serve(), serve(loki.WithNetworkLatency(20*time.Millisecond)))},
		{"WithSwapLatency", differs(serve(), serve(loki.WithSwapLatency(2*time.Second)))},
		{"WithExecutionJitter", differs(serve(), serve(loki.WithExecutionJitter(0.2)))},
		{"WithForecastWindow", differs(trend(), trend(loki.WithForecastWindow(3)))},
		{"WithForecastSeason", differs(holtWinters(), holtWinters(loki.WithForecastSeason(10)))},
		{"WithPipelinePolicy", differs(multi(), multi(loki.WithPipelinePolicy(loki.NoDropPolicy)))},
		{"WithPipelineForecaster", differs(multi(), multi(loki.WithPipelineForecaster(loki.ForecastTrend)))},
		{"DiurnalTrace", func(t *testing.T) {
			// One 240 s cycle from trough to crest and back: the run's first
			// and last 30 s buckets record demand near the trough, the middle
			// one near the crest.
			r, err := loki.Serve(loki.TrafficAnalysisPipeline(), loki.DiurnalTrace(24, 10, 100, 700, 1),
				loki.WithServers(20), loki.WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			first, mid, last := r.Series[0].DemandQPS, r.Series[len(r.Series)/2].DemandQPS, r.Series[len(r.Series)-1].DemandQPS
			if first > 200 || last > 200 || mid < 600 {
				t.Fatalf("demand %.0f, %.0f and %.0f qps at the start, middle and end, want a trough near 100 and a crest near 700", first, mid, last)
			}
		}},
		{"System.ServeHTTP and System.Drain", func(t *testing.T) {
			s, err := loki.New(loki.TrafficAnalysisPipeline(), loki.WithServers(20), loki.WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			// Feeding first runs the initial allocation, so the front door
			// has a plan to admit against.
			if err := s.Feed(loki.RampTrace(100, 100, 1, 1)); err != nil {
				t.Fatal(err)
			}
			infer := func() int {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v1/default/infer", nil).WithContext(context.Background())
				s.ServeHTTP(rec, req)
				return rec.Code
			}
			if code := infer(); code != http.StatusAccepted {
				t.Fatalf("infer answered %d before Drain, want 202", code)
			}
			s.Drain()
			if code := infer(); code != http.StatusServiceUnavailable {
				t.Fatalf("infer answered %d after Drain, want 503", code)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, row.check)
	}
}

// Fault and hardware specs built in code go through the same validators as
// the parsed ones, so a non-finite speed, cost or straggler factor is
// refused when the system is built.
func TestNonFiniteSpecsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	classes := func(a100 loki.HardwareClass) loki.Option {
		return loki.WithHardware(a100, loki.HardwareClass{Name: "v100", Count: 8, Speed: 1.0})
	}
	rows := []struct {
		name string
		opt  loki.Option
	}{
		{"straggler factor NaN", loki.WithFaults(loki.FaultEvent{At: 5 * time.Second, Kind: loki.FaultStraggler, N: 2, Factor: nan})},
		{"speed NaN", classes(loki.HardwareClass{Name: "a100", Count: 4, Speed: nan})},
		{"cost Inf", classes(loki.HardwareClass{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: inf})},
		{"cost NaN", classes(loki.HardwareClass{Name: "a100", Count: 4, Speed: 2.0, CostPerHour: nan})},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, err := loki.New(loki.TrafficAnalysisPipeline(), row.opt)
			if err == nil {
				s.Stop()
				t.Fatal("New accepted a non-finite spec")
			}
		})
	}
}

// An option set outside the range its doc comment states is refused where
// the options are resolved, with an error naming the option and the value,
// instead of hanging the wall-clock pacer (a NaN or infinite time scale),
// running batches in no time (jitter of 1 or more) or planning for less
// than the demand (negative headroom). PlanFor refuses a demand no plan can
// be sized for.
func TestOutOfRangeOptionsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	pipe := loki.TrafficAnalysisPipeline()
	newWith := func(opt loki.Option) error {
		s, err := loki.New(pipe, opt)
		if err == nil {
			s.Stop()
		}
		return err
	}
	planFor := func(demand float64, opts ...loki.Option) error {
		_, err := loki.PlanFor(pipe, demand, opts...)
		return err
	}
	rows := []struct {
		want string
		err  error
	}{
		{"WithTimeScale(NaN)", newWith(loki.WithTimeScale(nan))},
		{"WithTimeScale(+Inf)", newWith(loki.WithTimeScale(inf))},
		{"WithTimeScale(-1)", newWith(loki.WithTimeScale(-1))},
		{"WithExecutionJitter(1)", newWith(loki.WithExecutionJitter(1))},
		{"WithExecutionJitter(NaN)", newWith(loki.WithExecutionJitter(nan))},
		{"WithHeadroom(-1)", newWith(loki.WithHeadroom(-1))},
		{"WithHeadroom(NaN)", newWith(loki.WithHeadroom(nan))},
		{"WithHeadroom(+Inf)", newWith(loki.WithHeadroom(inf))},
		{"WithNetworkLatency(-1ms)", newWith(loki.WithNetworkLatency(-time.Millisecond))},
		{"WithSwapLatency(-1s)", newWith(loki.WithSwapLatency(-time.Second))},
		{"WithTraceSampling(1.5)", newWith(loki.WithTraceSampling(1.5))},
		{"WithTraceSampling(-0.1)", newWith(loki.WithTraceSampling(-0.1))},
		{"WithWorkerMetricsLimit(-1)", newWith(loki.WithWorkerMetricsLimit(-1))},
		{"WithHeadroom(NaN)", planFor(100, loki.WithHeadroom(nan))},
		{"PlanFor demand NaN", planFor(nan)},
		{"PlanFor demand +Inf", planFor(inf)},
		{"PlanFor demand -Inf", planFor(-inf)},
		{"PlanFor demand -5", planFor(-5)},
	}
	for _, row := range rows {
		if row.err == nil || !strings.Contains(row.err.Error(), row.want) {
			t.Errorf("want an error naming %q, got %v", row.want, row.err)
		}
	}
}

// The edges of each option's range are accepted, and zero keeps its default
// meaning.
func TestOptionRangeEdgesAccepted(t *testing.T) {
	s, err := loki.New(loki.TrafficAnalysisPipeline(),
		loki.WithHeadroom(0), loki.WithTimeScale(0), loki.WithExecutionJitter(0.99),
		loki.WithTraceSampling(1), loki.WithNetworkLatency(0),
		loki.WithSwapLatency(0), loki.WithWorkerMetricsLimit(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if _, err := loki.PlanFor(loki.TrafficAnalysisPipeline(), 0); err != nil {
		t.Fatal(err)
	}
}
