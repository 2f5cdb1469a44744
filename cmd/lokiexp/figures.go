package main

import (
	"loki/internal/experiments"
)

// options are the command-line values a figure may read; the README lists
// which figures read which flag.
type options struct {
	seed    int64
	servers int
	sloSec  float64
	quick   bool
}

// figure is one entry of -fig: its name, the banner printed above its
// output, and the run that returns the rendered table.
type figure struct {
	name, title string
	run         func(o options) (string, error)
}

// figures lists every figure in the order -fig all runs them.
var figures = []figure{
	{"1", "Figure 1: hardware→accuracy scaling phases", figure1},
	{"3", "Figure 3: accuracy-throughput tradeoff", figure3},
	{"5", "Figure 5: traffic-analysis comparison", func(o options) (string, error) { return comparison(true, o) }},
	{"6", "Figure 6: social-media comparison", func(o options) (string, error) { return comparison(false, o) }},
	{"7", "Figure 7: early-dropping ablation", figure7},
	{"8", "Figure 8: SLO sensitivity", figure8},
	{"hetero", "Hetero: mixed accelerator fleet vs speed-equivalent uniform", hetero},
	{"forecast", "Forecast: reactive vs proactive provisioning", forecastFig},
	{"ingress", "Ingress: admission control under overload", ingressFig},
	{"chaos", "Chaos: fault injection, tiers, and degradation order", chaos},
	{"validate", "§6.2: simulator validation", validate},
}

func figure1(o options) (string, error) {
	steps := 22
	if o.quick {
		steps = 11
	}
	r, err := experiments.Figure1(o.servers, o.sloSec, steps)
	if err != nil {
		return "", err
	}
	return experiments.FormatFigure1(r), nil
}

func figure3(options) (string, error) {
	return experiments.FormatFigure3(experiments.Figure3()), nil
}

func comparison(traffic bool, o options) (string, error) {
	steps := 144
	if o.quick {
		steps = 72
	}
	r, err := experiments.Comparison(experiments.CompareConfig{
		TrafficNotSocial: traffic,
		Servers:          o.servers,
		SLOSec:           o.sloSec,
		Seed:             o.seed,
		TraceSteps:       steps,
	})
	if err != nil {
		return "", err
	}
	return experiments.FormatComparison(r), nil
}

func figure7(o options) (string, error) {
	rows, err := experiments.Figure7(o.seed)
	if err != nil {
		return "", err
	}
	return experiments.FormatFigure7(rows), nil
}

func figure8(o options) (string, error) {
	rows, err := experiments.Figure8(o.seed, nil)
	if err != nil {
		return "", err
	}
	return experiments.FormatFigure8(rows), nil
}

func validate(o options) (string, error) {
	cfg := experiments.ValidateConfig{Seed: o.seed}
	if o.quick {
		cfg.TraceSteps = 10
		cfg.StepSec = 4
	}
	r, err := experiments.Validate(cfg)
	if err != nil {
		return "", err
	}
	return experiments.FormatValidation(r), nil
}

func forecastFig(o options) (string, error) {
	steps := 36
	if o.quick {
		steps = 24
	}
	r, err := experiments.Forecast(experiments.ForecastConfig{
		Servers: o.servers, SLOSec: o.sloSec, Seed: o.seed, TraceSteps: steps,
	})
	if err != nil {
		return "", err
	}
	return experiments.FormatForecast(r), nil
}

func hetero(o options) (string, error) {
	steps, stepSec := 48, 10.0
	if o.quick {
		steps, stepSec = 24, 5.0
	}
	r, err := experiments.Hetero(experiments.HeteroConfig{
		SLOSec: o.sloSec, Seed: o.seed, TraceSteps: steps, StepSec: stepSec,
	})
	if err != nil {
		return "", err
	}
	return experiments.FormatHetero(r), nil
}

func ingressFig(o options) (string, error) {
	cfg := experiments.IngressConfig{Servers: o.servers, SLOSec: o.sloSec, Seed: o.seed}
	if o.quick {
		// Eight seconds per point still leave three past the driver's
		// five-second warmup, so the quick 2x point measures steady state.
		cfg.Mults = []float64{1.0, 2.0}
		cfg.DurSec = 8
	}
	r, err := experiments.Ingress(cfg)
	if err != nil {
		return "", err
	}
	return experiments.FormatIngress(r), nil
}

func chaos(o options) (string, error) {
	r, err := experiments.Chaos(experiments.ChaosConfig{
		SLOSec: o.sloSec, Seed: o.seed, Quick: o.quick,
	})
	if err != nil {
		return "", err
	}
	return experiments.FormatChaos(r), nil
}
