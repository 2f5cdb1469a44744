// Command lokiserve demonstrates the online System API: it stands up a
// long-lived serving system, feeds it a workload trace, and prints live
// snapshots while the system runs, then drains and reports.
//
// Single-pipeline example:
//
//	lokiserve -pipeline traffic -peak 600 -engine live -timescale 0.25 -monitor 1s
//
// Multi-tenant example — comma-separated lists, one entry per pipeline,
// served concurrently on one shared pool with per-pipeline reports:
//
//	lokiserve -pipeline traffic,social -trace azure,twitter -peak 500,300 -share 0.4,0.3
//
// Proactive serving — a per-pipeline demand forecaster feeds the Resource
// Manager, and the status line shows observed→predicted demand. On a
// diurnal trace give Holt-Winters its cycle length (-season, in seconds;
// the diurnal trace completes 2 cycles, so one cycle is steps×step/2):
//
//	lokiserve -pipeline traffic -trace flash -forecaster holtwinters
//	lokiserve -pipeline traffic -trace diurnal -steps 48 -step 5 -forecaster holtwinters -season 120
//
// Chaos drills — a deterministic fault schedule (-fault) injects crashes,
// whole-class outages, or stragglers into either engine, with each event
// logged in the status stream as it fires; service tiers (-tier, one per
// pipeline) order who degrades first when the survivors cannot carry
// everyone:
//
//	lokiserve -pipeline traffic,social -tier 1,0 -hardware a100:12@1.0,spot:8@1.0 \
//	    -engine live -fault outage@30s:class=spot:recover=30s
//
// With -engine live the monitor goroutine observes the system concurrently
// with serving (Snapshot is concurrency-safe on the wall-clock engine); with
// -engine sim the run happens in virtual time and snapshots are printed
// between lifecycle phases instead.
//
// Observability — every run records per-worker telemetry (scrape GET
// /metrics under -listen, or read Snapshot.Workers) and samples request
// traces; -trace-out dumps the sampled span trees and per-stage latency
// summaries to a JSON file after the run:
//
//	lokiserve -pipeline traffic -trace-out traces.json
//
// Profiling — -pprof mounts Go's net/http/pprof on its own listener,
// independent of -listen, so CPU and heap profiles are available in both the
// demo loop and front-door modes:
//
//	lokiserve -listen :8080 -pprof localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// With -listen the demo loop is replaced by the HTTP front door: the system
// mounts POST /v1/{pipeline}/infer, GET /v1/{pipeline}/snapshot, GET
// /metrics, and GET /healthz on the given address and serves real sockets
// until SIGINT/SIGTERM,
// then shuts down gracefully — stops admitting (503 on new requests), drains
// in-flight work against -drain, and stops the system. Pair it with
// -admission to shed per-tenant overload with 429 + Retry-After, and drive it
// with cmd/lokiload:
//
//	lokiserve -listen :8080 -pipeline traffic,social -admission
//	lokiload  -url http://localhost:8080 -pipeline traffic -qps 400 -dur 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"maps"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"loki"
)

func main() {
	pipeNames := flag.String("pipeline", "traffic", "pipeline(s): traffic, chain, social (comma-separated for multi-tenant)")
	traceNames := flag.String("trace", "azure", "workload(s): azure, twitter, ramp, diurnal, flash (comma-separated, one per pipeline)")
	peaks := flag.String("peak", "600", "trace peak(s) in QPS (comma-separated, one per pipeline)")
	shares := flag.String("share", "", "guaranteed pool share(s) under contention (comma-separated, blank = equal split)")
	forecasters := flag.String("forecaster", "", "demand forecaster(s): last, trend, holtwinters (comma-separated, one per pipeline; blank = reactive)")
	seasons := flag.String("season", "", "Holt-Winters seasonal period(s) in seconds (comma-separated, one per pipeline; blank/0 = non-seasonal)")
	steps := flag.Int("steps", 48, "trace steps")
	stepSec := flag.Float64("step", 5, "seconds per trace step")
	servers := flag.Int("servers", 20, "shared pool size (superseded by -hardware)")
	hardware := flag.String("hardware", "", "hardware classes for the shared pool, e.g. a100:4@2.0,v100:8@1.0,cpu:16@0.25 (name:count@speed[@cost/h]; blank = homogeneous -servers pool)")
	slo := flag.Duration("slo", 250*time.Millisecond, "end-to-end latency SLO")
	seed := flag.Int64("seed", 1, "random seed")
	engName := flag.String("engine", "sim", "serving backend: sim (virtual time), live (wall clock)")
	timeScale := flag.Float64("timescale", 0.25, "wall-time compression for -engine live (-listen defaults to 1.0)")
	monitor := flag.Duration("monitor", time.Second, "snapshot period for -engine live")
	listen := flag.String("listen", "", "serve the HTTP front door on this address (e.g. :8080) instead of the demo loop; implies -engine live")
	admission := flag.Bool("admission", false, "arm per-pipeline admission control and load shedding (429 + Retry-After over HTTP)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for -listen: drain in-flight work this long before exiting")
	faults := flag.String("fault", "", "fault schedule, e.g. crash@30s:class=a100:n=2:recover=20s,outage@60s:class=spot:recover=30s (kinds crash, outage, straggle; keys class=, n=, factor=, recover=)")
	tiers := flag.String("tier", "", "service tier(s) under contention, higher sheds last (comma-separated, one per pipeline; blank = untiered)")
	traceOut := flag.String("trace-out", "", "write the sampled request traces (span trees + per-stage latency summaries) to this file as JSON after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables the debug listener")
	flag.Parse()

	if *pprofAddr != "" {
		// The profiler gets its own listener and mux: the front door's
		// handler stays exactly the published API surface, and profiling
		// works in demo-loop mode too (no -listen required). The blank
		// net/http/pprof import registers on http.DefaultServeMux.
		go func() {
			log.Printf("pprof listener: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	names := strings.Split(*pipeNames, ",")
	trs := strings.Split(*traceNames, ",")
	pks := strings.Split(*peaks, ",")

	opts := []loki.Option{
		loki.WithServers(*servers),
		loki.WithSLO(*slo),
		loki.WithSeed(*seed),
	}
	poolSize := *servers
	if *hardware != "" {
		classes, err := loki.ParseHardware(*hardware)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, loki.WithHardware(classes...))
		poolSize = 0
		for _, c := range classes {
			poolSize += c.Count
		}
	}
	if *listen != "" {
		// A networked front door needs real time: virtual time does not
		// advance between HTTP requests, and real clients want real seconds.
		*engName = "live"
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["timescale"] {
			*timeScale = 1.0
		}
	}
	if *admission {
		opts = append(opts, loki.WithAdmission(true))
	}
	if *faults != "" {
		events, err := loki.ParseFaults(*faults)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, loki.WithFaults(events...),
			// Interleaves with the monitor's status lines: faults announce
			// themselves the moment they fire rather than a tick later.
			loki.WithFaultObserver(func(timeSec float64, event string) {
				fmt.Printf("t=%7.1fs  ** fault: %s\n", timeSec, event)
			}))
	}
	live := *engName == "live"
	switch *engName {
	case "sim":
	case "live":
		opts = append(opts, loki.WithEngine(loki.Wallclock), loki.WithTimeScale(*timeScale))
	default:
		log.Fatalf("unknown engine %q", *engName)
	}

	sys, err := loki.NewMulti(opts...)
	if err != nil {
		log.Fatal(err)
	}
	traces := map[string]*loki.Trace{}
	for i, name := range names {
		name = strings.TrimSpace(name)
		peak := pick(pks, i, "600")
		peakQPS, err := strconv.ParseFloat(peak, 64)
		if err != nil {
			log.Fatalf("bad peak %q: %v", peak, err)
		}
		// Shares are fractions of one shared pool, so unlike -peak they never
		// fan out: a pipeline without its own entry stays unreserved (equal
		// split of the unreserved fraction). Tiers, seasons and forecasters
		// likewise: a blank or missing entry keeps the default (untiered,
		// non-seasonal, reactive) instead of inheriting the neighbour's.
		var popts []loki.PipelineOption
		if s := entry(*shares, i); s != "" {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				log.Fatalf("bad share %q: %v", s, err)
			}
			popts = append(popts, loki.WithShare(f))
		}
		if s := entry(*tiers, i); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				log.Fatalf("bad tier %q: want a non-negative integer", s)
			}
			popts = append(popts, loki.WithTier(n, *slo))
		}
		season := 0
		if s := entry(*seasons, i); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				log.Fatalf("bad season %q: want a non-negative whole number of seconds", s)
			}
			season = n
		}
		if s := entry(*forecasters, i); s != "" {
			kind := forecasterFor(s)
			fopts := []loki.ForecastOption{loki.WithForecastSeason(season)}
			// The headroom margin belongs to real forecasting only:
			// `-forecaster last` must stay the documented exact identity
			// to reactive serving.
			if kind != loki.ForecastLast {
				fopts = append(fopts, loki.WithForecastHeadroom(0.1))
			}
			popts = append(popts, loki.WithPipelineForecaster(kind, fopts...))
		}
		if err := sys.AddPipeline(name, pipelineFor(name), popts...); err != nil {
			log.Fatal(err)
		}
		if *listen != "" {
			// Traffic arrives over sockets, not a synthetic trace.
			fmt.Printf("pipeline %-8s mounted at POST /v1/%s/infer\n", name, name)
			continue
		}
		tr := traceFor(pick(trs, i, "azure"), *seed+int64(i), *steps, *stepSec, peakQPS)
		traces[name] = tr
		fmt.Printf("pipeline %-8s trace %-8s peak %6.0f qps over %.0fs\n",
			name, pick(trs, i, "azure"), peakQPS, tr.Duration())
	}
	if *hardware != "" {
		fmt.Printf("serving %d pipeline(s) on a shared pool of %d servers [%s] (engine %s)\n\n",
			len(names), poolSize, *hardware, *engName)
	} else {
		fmt.Printf("serving %d pipeline(s) on a shared pool of %d servers (engine %s)\n\n",
			len(names), poolSize, *engName)
	}

	if *listen != "" {
		serveHTTP(sys, *listen, *monitor, *drain, *traceOut)
		return
	}

	done := make(chan struct{})
	if live {
		go func() {
			tick := time.NewTicker(*monitor)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					printSnapshots(sys)
				}
			}
		}()
	}

	if err := sys.FeedAll(traces); err != nil {
		log.Fatal(err)
	}
	if live {
		close(done)
	} else {
		printSnapshots(sys)
	}
	if err := sys.Stop(); err != nil {
		log.Fatal(err)
	}
	writeTraces(sys, *traceOut)

	fmt.Println("\nfinal state:")
	printSnapshots(sys)
	for _, name := range slices.Sorted(maps.Keys(traces)) {
		if plan, err := sys.Plan(name); err == nil && plan != nil {
			extra := ""
			if *hardware != "" {
				usage := plan.ClassUsage()
				for _, cl := range slices.Sorted(maps.Keys(usage)) {
					extra += fmt.Sprintf(" %s:%d", cl, usage[cl])
				}
				extra = " (" + strings.TrimSpace(extra) + ")"
				if plan.CostPerHour > 0 {
					extra += fmt.Sprintf(" $%.2f/h", plan.CostPerHour)
				}
			}
			fmt.Printf("standing plan [%s]: %d servers%s, expected accuracy %.4f\n",
				name, plan.ServersUsed, extra, plan.ExpectedAccuracy)
		}
	}
	fmt.Println()
	reports := sys.Reports()
	for _, name := range slices.Sorted(maps.Keys(reports)) {
		fmt.Println(reports[name])
	}
	if len(reports) > 1 {
		fmt.Println(sys.AggregateReport())
	}
}

// serveHTTP replaces the demo loop with the network front door: serve real
// sockets until SIGINT/SIGTERM, then shut down gracefully — stop admitting
// (new requests get 503), let the HTTP server finish in-flight exchanges, and
// stop the serving system, all against the -drain deadline.
func serveHTTP(sys *loki.MultiSystem, addr string, monitor, drainDeadline time.Duration, traceOut string) {
	srv := &http.Server{Addr: addr, Handler: sys}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(monitor)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				printSnapshots(sys)
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("listening on %s (SIGINT/SIGTERM drains and exits)\n\n", addr)
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal interrupts the drain instead of being swallowed

	fmt.Println("\ndraining: new requests get 503, in-flight work finishes...")
	sys.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), drainDeadline)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	stopped := make(chan error, 1)
	go func() { stopped <- sys.Stop() }()
	select {
	case err := <-stopped:
		if err != nil {
			log.Printf("stop: %v", err)
		}
	case <-shCtx.Done():
		log.Printf("drain deadline %s exceeded; exiting with work in flight", drainDeadline)
	}
	close(done)
	writeTraces(sys, traceOut)

	fmt.Println("\nfinal state:")
	printSnapshots(sys)
	fmt.Println()
	reports := sys.Reports()
	for _, name := range slices.Sorted(maps.Keys(reports)) {
		fmt.Println(reports[name])
	}
	if len(reports) > 1 {
		fmt.Println(sys.AggregateReport())
	}
}

// writeTraces dumps the run's sampled request traces to path (-trace-out);
// a blank path means the flag was not given.
func writeTraces(sys *loki.MultiSystem, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("trace-out: %v", err)
		return
	}
	defer f.Close()
	if err := sys.WriteTraces(f); err != nil {
		log.Printf("trace-out: %v", err)
		return
	}
	fmt.Printf("wrote request traces to %s\n", path)
}

// pick returns list[i] trimmed. When the list is shorter than the pipeline
// count, the last supplied value fans out to the remaining pipelines (so
// `-peak 500` drives every pipeline at 500); an explicitly blank entry
// (`-share 0.6,`) means the default, not the neighbour's value.
func pick(list []string, i int, def string) string {
	if i < len(list) {
		if v := strings.TrimSpace(list[i]); v != "" {
			return v
		}
		return def
	}
	for j := len(list) - 1; j >= 0; j-- {
		if v := strings.TrimSpace(list[j]); v != "" {
			return v
		}
	}
	return def
}

// entry returns the i-th entry of the comma-separated list, trimmed, or ""
// when the list has no such entry. Unlike pick it never fans out.
func entry(list string, i int) string {
	if l := strings.Split(list, ","); i < len(l) {
		return strings.TrimSpace(l[i])
	}
	return ""
}

func pipelineFor(name string) *loki.Pipeline {
	switch name {
	case "traffic":
		return loki.TrafficAnalysisPipeline()
	case "chain":
		return loki.TrafficChainPipeline()
	case "social":
		return loki.SocialMediaPipeline()
	default:
		log.Fatalf("unknown pipeline %q", name)
		return nil
	}
}

func traceFor(name string, seed int64, steps int, stepSec, peak float64) *loki.Trace {
	switch name {
	case "azure":
		return loki.AzureTrace(seed, steps, stepSec, peak)
	case "twitter":
		return loki.TwitterTrace(seed, steps, stepSec, peak)
	case "ramp":
		return loki.RampTrace(peak/10, peak, steps, stepSec)
	case "diurnal":
		return loki.DiurnalTrace(steps, stepSec, peak/8, peak, 2)
	case "flash":
		return loki.FlashCrowdTrace(peak/3, steps, stepSec, 0.4, 0.25, 3)
	default:
		log.Fatalf("unknown trace %q", name)
		return nil
	}
}

func forecasterFor(name string) loki.ForecasterKind {
	switch name {
	case "last":
		return loki.ForecastLast
	case "trend":
		return loki.ForecastTrend
	case "holtwinters", "hw":
		return loki.ForecastHoltWinters
	default:
		log.Fatalf("unknown forecaster %q", name)
		return loki.ForecastLast
	}
}

func printSnapshots(sys *loki.MultiSystem) {
	grants := sys.Grants()
	for _, name := range slices.Sorted(maps.Keys(grants)) {
		s, err := sys.Snapshot(name)
		if err != nil {
			continue
		}
		fmt.Printf("t=%7.1fs  [%-8s] arrivals=%-8d inflight=%-6d completed=%-8d dropped=%-6d rerouted=%-6d servers=%d/%d demand=%.0f→%.0f%s%s\n",
			s.TimeSec, name, s.Arrivals, s.InFlight, s.Completed, s.Dropped, s.Rerouted,
			s.ActiveServers, s.GrantedServers, s.ObservedDemand, s.PredictedDemand,
			admissionGauges(s), classOccupancy(s))
	}
}

// admissionGauges renders "  admitted=12/s shed=3/s limit=200/s" (trailing
// admitted/shed rates against the granted target rate) when an admission
// controller is armed, and nothing otherwise.
func admissionGauges(s loki.Snapshot) string {
	if s.GrantedRateQPS == 0 && s.Shed == 0 {
		return ""
	}
	return fmt.Sprintf("  admitted=%.0f/s shed=%.0f/s limit=%.0f/s",
		s.AdmittedQPS, s.ShedQPS, s.GrantedRateQPS)
}

// classOccupancy renders "  classes a100:2/4 v100:3/8" (active/granted per
// hardware class) for heterogeneous pools, and nothing otherwise.
func classOccupancy(s loki.Snapshot) string {
	if len(s.ActiveServersByClass) == 0 {
		return ""
	}
	out := "  classes"
	for _, name := range slices.Sorted(maps.Keys(s.ActiveServersByClass)) {
		out += fmt.Sprintf(" %s:%d/%d", name, s.ActiveServersByClass[name], s.GrantedServersByClass[name])
	}
	return out
}
