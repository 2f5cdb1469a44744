// Command lokisim runs one serving simulation with explicit parameters and
// prints the summary plus the time series.
//
// Example:
//
//	lokisim -pipeline traffic -trace azure -peak 1100 -servers 20 -slo 250ms -approach loki
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"loki"
)

func main() {
	pipeName := flag.String("pipeline", "traffic", "pipeline: traffic, chain, social")
	traceName := flag.String("trace", "azure", "workload: azure, twitter, ramp")
	peak := flag.Float64("peak", 1100, "trace peak (QPS)")
	steps := flag.Int("steps", 96, "trace steps")
	stepSec := flag.Float64("step", 10, "seconds per trace step")
	servers := flag.Int("servers", 20, "cluster size (superseded by -hardware)")
	hardware := flag.String("hardware", "", "hardware classes, e.g. a100:4@2.0,v100:8@1.0,cpu:16@0.25 (name:count@speed[@cost/h]; blank = homogeneous -servers pool)")
	slo := flag.Duration("slo", 250*time.Millisecond, "end-to-end latency SLO")
	seed := flag.Int64("seed", 1, "random seed")
	approach := flag.String("approach", "loki", "resource manager: loki, inferline, proteus")
	polName := flag.String("policy", "opportunistic", "drop policy: none, lasttask, pertask, opportunistic")
	engName := flag.String("engine", "sim", "serving backend: sim (virtual time), live (wall clock)")
	timeScale := flag.Float64("timescale", 0.5, "wall-time compression for -engine live")
	series := flag.Bool("series", true, "print the time series")
	flag.Parse()

	var pipe *loki.Pipeline
	switch *pipeName {
	case "traffic":
		pipe = loki.TrafficAnalysisPipeline()
	case "chain":
		pipe = loki.TrafficChainPipeline()
	case "social":
		pipe = loki.SocialMediaPipeline()
	default:
		log.Fatalf("unknown pipeline %q", *pipeName)
	}

	var tr *loki.Trace
	switch *traceName {
	case "azure":
		tr = loki.AzureTrace(*seed, *steps, *stepSec, *peak)
	case "twitter":
		tr = loki.TwitterTrace(*seed, *steps, *stepSec, *peak)
	case "ramp":
		tr = loki.RampTrace(*peak/10, *peak, *steps, *stepSec)
	default:
		log.Fatalf("unknown trace %q", *traceName)
	}

	opts := []loki.Option{
		loki.WithServers(*servers),
		loki.WithSLO(*slo),
		loki.WithSeed(*seed),
	}
	poolDesc := fmt.Sprintf("%d servers", *servers)
	if *hardware != "" {
		classes, err := loki.ParseHardware(*hardware)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, loki.WithHardware(classes...))
		total := 0
		for _, c := range classes {
			total += c.Count
		}
		poolDesc = fmt.Sprintf("%d servers (%s)", total, *hardware)
	}
	switch *approach {
	case "loki":
	case "inferline":
		opts = append(opts, loki.WithBaseline(loki.BaselineInferLine))
	case "proteus":
		opts = append(opts, loki.WithBaseline(loki.BaselineProteus))
	default:
		log.Fatalf("unknown approach %q", *approach)
	}
	switch *polName {
	case "none":
		opts = append(opts, loki.WithPolicy(loki.NoDropPolicy))
	case "lasttask":
		opts = append(opts, loki.WithPolicy(loki.LastTaskPolicy))
	case "pertask":
		opts = append(opts, loki.WithPolicy(loki.PerTaskPolicy))
	case "opportunistic":
		opts = append(opts, loki.WithPolicy(loki.OpportunisticPolicy))
	default:
		log.Fatalf("unknown policy %q", *polName)
	}
	switch *engName {
	case "sim":
	case "live":
		opts = append(opts, loki.WithEngine(loki.Wallclock), loki.WithTimeScale(*timeScale))
	default:
		log.Fatalf("unknown engine %q", *engName)
	}

	report, err := loki.Serve(pipe, tr, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s | %s | peak %.0f qps | %s | SLO %v | %s/%s | engine %s\n",
		pipe.Name, *traceName, *peak, poolDesc, *slo, *approach, *polName, *engName)
	fmt.Println(report)
	fmt.Printf("mean latency %v, rerouted %d\n", report.MeanLatency, report.Rerouted)
	if len(report.MeanServersByClass) > 0 {
		fmt.Printf("mean occupancy by class:")
		for _, name := range slices.Sorted(maps.Keys(report.MeanServersByClass)) {
			fmt.Printf(" %s=%.1f", name, report.MeanServersByClass[name])
		}
		fmt.Println()
	}
	if *series {
		fmt.Printf("\n%8s %12s %10s %9s %10s\n", "time(s)", "demand", "accuracy", "servers", "slo-viol")
		for _, p := range report.Series {
			fmt.Printf("%8.0f %12.1f %10.4f %9.1f %10.4f\n",
				p.TimeSec, p.DemandQPS, p.Accuracy, p.Servers, p.ViolationRatio)
		}
	}
}
