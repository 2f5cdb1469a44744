// Command lokiexp regenerates the tables and figures of the paper's
// evaluation (§6). Each figure prints the same series/rows the paper plots,
// plus the headline ratios with the paper's numbers alongside.
//
// Usage:
//
//	lokiexp -fig 1          # capacity phases (Figure 1)
//	lokiexp -fig 3          # accuracy-throughput tradeoff (Figure 3)
//	lokiexp -fig 5          # traffic-analysis end-to-end comparison (Figure 5)
//	lokiexp -fig 6          # social-media end-to-end comparison (Figure 6)
//	lokiexp -fig 7          # early-dropping ablation (Figure 7)
//	lokiexp -fig 8          # SLO sensitivity (Figure 8)
//	lokiexp -fig hetero      # mixed accelerator fleet vs uniform fleet
//	lokiexp -fig multitenant # shared-pool contention across two pipelines
//	lokiexp -fig fleet       # planning-round latency at 100-1000 servers
//	lokiexp -fig forecast   # reactive vs proactive (forecast-driven) serving
//	lokiexp -fig ingress    # HTTP front door: admission control under overload
//	lokiexp -fig chaos      # fault injection: crash/outage/straggler × tiers
//	lokiexp -fig validate   # simulator-vs-prototype validation (§6.2)
//	lokiexp -fig runtime    # Resource Manager / Load Balancer overhead (§6.5)
//	lokiexp -fig all        # everything
//
// Performance work attaches pprof evidence with the profiling flags, e.g.
//
//	lokiexp -fig multitenant -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -top cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"time"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 3, 5, 6, 7, 8, hetero, multitenant, fleet, forecast, ingress, chaos, validate, runtime, all")
	seed := flag.Int64("seed", 11, "random seed")
	servers := flag.Int("servers", 20, "cluster size")
	sloMs := flag.Float64("slo", 250, "latency SLO in milliseconds")
	quick := flag.Bool("quick", false, "smaller traces for a fast pass")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			goruntime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	run := func(name string, f func() error) {
		fmt.Printf("==================== %s ====================\n", name)
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	all := *fig == "all"
	if all || *fig == "1" {
		run("Figure 1: hardware→accuracy scaling phases", func() error {
			return figure1(*servers, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "3" {
		run("Figure 3: accuracy-throughput tradeoff", figure3)
	}
	if all || *fig == "5" {
		run("Figure 5: traffic-analysis comparison", func() error {
			return comparison(true, *seed, *servers, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "6" {
		run("Figure 6: social-media comparison", func() error {
			return comparison(false, *seed, *servers, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "7" {
		run("Figure 7: early-dropping ablation", func() error {
			return figure7(*seed)
		})
	}
	if all || *fig == "8" {
		run("Figure 8: SLO sensitivity", func() error {
			return figure8(*seed)
		})
	}
	if all || *fig == "hetero" {
		run("Hetero: mixed accelerator fleet vs speed-equivalent uniform", func() error {
			return hetero(*seed, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "fleet" {
		run("Fleet: planning rounds at 100-1000 servers, greedy vs MILP-only", func() error {
			return fleet(*seed, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "multitenant" {
		run("Multi-tenant: shared-pool contention", func() error {
			return multitenant(*seed, *servers, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "forecast" {
		run("Forecast: reactive vs proactive provisioning", func() error {
			return forecastFig(*seed, *servers, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "ingress" {
		run("Ingress: admission control under overload", func() error {
			return ingressFig(*seed, *servers, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "chaos" {
		run("Chaos: fault injection, tiers, and degradation order", func() error {
			return chaos(*seed, *sloMs/1000, *quick)
		})
	}
	if all || *fig == "validate" {
		run("§6.2: simulator validation", func() error {
			return validate(*seed, *quick)
		})
	}
	if all || *fig == "runtime" {
		run("§6.5: runtime overhead", func() error {
			return runtime(*servers, *sloMs/1000)
		})
	}
}
