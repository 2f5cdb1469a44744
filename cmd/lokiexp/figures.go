package main

import (
	"fmt"

	"loki/internal/experiments"
)

func figure1(servers int, sloSec float64, quick bool) error {
	steps := 22
	if quick {
		steps = 11
	}
	r, err := experiments.Figure1(servers, sloSec, steps)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatFigure1(r))
	return nil
}

func figure3() error {
	fmt.Println(experiments.FormatFigure3(experiments.Figure3()))
	return nil
}

func comparison(traffic bool, seed int64, servers int, sloSec float64, quick bool) error {
	steps := 144
	if quick {
		steps = 72
	}
	r, err := experiments.Comparison(experiments.CompareConfig{
		TrafficNotSocial: traffic,
		Servers:          servers,
		SLOSec:           sloSec,
		Seed:             seed,
		TraceSteps:       steps,
		StepSec:          10,
	})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatComparison(r))
	return nil
}

func figure7(seed int64) error {
	rows, err := experiments.Figure7(seed)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatFigure7(rows))
	return nil
}

func figure8(seed int64) error {
	rows, err := experiments.Figure8(seed, nil)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatFigure8(rows))
	return nil
}

func validate(seed int64, quick bool) error {
	cfg := experiments.ValidateConfig{Seed: seed}
	if quick {
		cfg.TraceSteps = 10
		cfg.StepSec = 4
		cfg.TimeScale = 0.5
	}
	r, err := experiments.Validate(cfg)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatValidation(r))
	return nil
}

func runtime(servers int, sloSec float64) error {
	r, err := experiments.Runtime(servers, sloSec)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatRuntime(r))
	return nil
}

func forecastFig(seed int64, servers int, sloSec float64, quick bool) error {
	steps := 36
	if quick {
		steps = 24
	}
	r, err := experiments.Forecast(experiments.ForecastConfig{
		Servers: servers, SLOSec: sloSec, Seed: seed,
		TraceSteps: steps, StepSec: 10,
	})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatForecast(r))
	return nil
}

func hetero(seed int64, sloSec float64, quick bool) error {
	steps, stepSec := 48, 10.0
	if quick {
		steps, stepSec = 24, 5.0
	}
	r, err := experiments.Hetero(experiments.HeteroConfig{
		SLOSec: sloSec, Seed: seed, TraceSteps: steps, StepSec: stepSec,
	})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatHetero(r))
	return nil
}

func ingressFig(seed int64, servers int, sloSec float64, quick bool) error {
	cfg := experiments.IngressConfig{Servers: servers, SLOSec: sloSec, Seed: seed}
	if quick {
		// Warmup must outlast the fresh bucket's burst allowance (one second
		// of capacity) plus the time the plan's headroom needs to drain it, or
		// the quick 2x point measures the start-up transient, not steady state.
		cfg.Mults = []float64{1.0, 2.0}
		cfg.DurSec = 8
		cfg.WarmupSec = 5
	}
	r, err := experiments.Ingress(cfg)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatIngress(r))
	return nil
}

func chaos(seed int64, sloSec float64, quick bool) error {
	r, err := experiments.Chaos(experiments.ChaosConfig{
		SLOSec: sloSec, Seed: seed, Quick: quick,
	})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatChaos(r))
	return nil
}

func fleet(seed int64, sloSec float64, quick bool) error {
	r, err := experiments.Fleet(experiments.FleetConfig{
		SLOSec: sloSec, Seed: seed, Quick: quick,
	})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatFleet(r))
	return nil
}

func multitenant(seed int64, servers int, sloSec float64, quick bool) error {
	steps := 48
	if quick {
		steps = 24
	}
	r, err := experiments.MultiTenant(experiments.MultiTenantConfig{
		Servers: servers, SLOSec: sloSec, Seed: seed,
		TraceSteps: steps, StepSec: 10,
	})
	if err != nil {
		return err
	}
	fmt.Println(experiments.FormatMultiTenant(r))
	return nil
}
