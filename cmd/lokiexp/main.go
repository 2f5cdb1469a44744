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
//	lokiexp -fig hetero     # mixed accelerator fleet vs uniform fleet
//	lokiexp -fig forecast   # reactive vs proactive (forecast-driven) serving
//	lokiexp -fig ingress    # HTTP front door: admission control under overload
//	lokiexp -fig chaos      # fault injection: crash/outage/straggler × tiers
//	lokiexp -fig validate   # simulator-vs-prototype validation (§6.2)
//	lokiexp -fig all        # everything
//
// Performance work attaches pprof evidence with the profiling flags, e.g.
//
//	lokiexp -fig 5 -quick -cpuprofile cpu.prof -memprofile mem.prof
//	go tool pprof -top cpu.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"time"

	"loki/internal/stack"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, regenerates the chosen figures onto
// stdout, and returns the exit status — 2 for a usage error, such as a
// -fig name not in the figures table.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	names = append(names, "all")
	valid := strings.Join(names, ", ")

	fs := flag.NewFlagSet("lokiexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate: "+valid)
	seed := fs.Int64("seed", 11, "random seed")
	servers := fs.Int("servers", stack.DefaultServers, "cluster size")
	sloMs := fs.Float64("slo", 1000*stack.DefaultSLOSec, "latency SLO in milliseconds")
	quick := fs.Bool("quick", false, "smaller traces for a fast pass")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var chosen []figure
	for _, f := range figures {
		if *fig == "all" || *fig == f.name {
			chosen = append(chosen, f)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "lokiexp: unknown figure %q; valid: %s\n", *fig, valid)
		return 2
	}
	o := options{seed: *seed, servers: *servers, sloSec: *sloMs / 1000, quick: *quick}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	for _, f := range chosen {
		fmt.Fprintf(stdout, "==================== %s ====================\n", f.title)
		t0 := time.Now()
		out, err := f.run(o)
		if err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", f.title, err)
			return 1
		}
		fmt.Fprintln(stdout, out)
		fmt.Fprintf(stdout, "[%s done in %v]\n\n", f.title, time.Since(t0).Round(time.Millisecond))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		goruntime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return 0
}
