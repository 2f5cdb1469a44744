package loki_test

import (
	"testing"

	"loki"
	"loki/internal/experiments"
	"loki/internal/profiles"
	"loki/internal/trace"
)

// servePin is the part of a run both entry points report: the §6.1 metrics
// and the request totals.
type servePin struct {
	Accuracy, Violation, Servers, CostHours float64
	Arrivals, Completed, Late, Dropped      int64
}

// TestServeMatchesExperimentsRun checks that the public serving path
// (loki.Serve) and the path every paper figure takes (experiments.Run)
// serve one pipeline identically: same plans, same requests, same report,
// on a homogeneous pool under two seeds and on a priced two-class pool.
func TestServeMatchesExperimentsRun(t *testing.T) {
	priced := []loki.HardwareClass{
		{Name: "v100", Count: 6, Speed: 2, CostPerHour: 3},
		{Name: "t4", Count: 10, Speed: 0.8, CostPerHour: 0.5},
	}
	for _, tc := range []struct {
		name     string
		seed     int64
		hardware []loki.HardwareClass
	}{
		{"homogeneous/seed1", 1, nil},
		{"homogeneous/seed7", 7, nil},
		{"priced-2-class/seed3", 3, priced},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []loki.Option{loki.WithServers(20), loki.WithSeed(tc.seed)}
			cfg := experiments.RunConfig{
				Graph: profiles.TrafficTree(), Trace: trace.Ramp(200, 900, 12, 10),
				Approach: experiments.Loki, Servers: 20, Seed: tc.seed,
			}
			if tc.hardware != nil {
				opts = append(opts, loki.WithHardware(tc.hardware...))
				for _, h := range tc.hardware {
					cfg.Classes = append(cfg.Classes, profiles.Class{Name: h.Name, Count: h.Count, Speed: h.Speed, CostPerHour: h.CostPerHour})
				}
			}
			rep, err := loki.Serve(loki.TrafficAnalysisPipeline(), loki.RampTrace(200, 900, 12, 10), opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := experiments.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := servePin{rep.Accuracy, rep.SLOViolationRatio, rep.MeanServers, rep.ServerCostHours,
				rep.Arrivals, rep.Completed, rep.Late, rep.Dropped}
			s := res.Summary
			want := servePin{s.MeanAccuracy, s.ViolationRatio, s.MeanServers, s.CostHours,
				int64(s.Arrivals), int64(s.Completed), int64(s.Late), int64(s.Dropped)}
			if got != want {
				t.Errorf("loki.Serve and experiments.Run differ:\n Serve %+v\n   Run %+v", got, want)
			}
		})
	}
}
