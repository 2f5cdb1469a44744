// Command lokibench is the repository's benchmark: six workloads over the
// serving path and the control path, measured end to end and layer by layer.
// See README.md for the workloads, the metrics and how they interact.
//
// With -workload it runs one pass of one workload and prints its result as
// the last line of standard output, the form BENCHMARK.json's driver reads.
// Without it, it runs the whole suite into one JSON document, and with
// -compare it sets two such documents side by side.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// commit is stamped by run.sh (-ldflags -X); a plain go build leaves it.
var commit = "unknown"

func main() {
	var (
		name    = flag.String("workload", "", "run one pass of this workload and print the driver's result line; empty runs the suite")
		seed    = flag.Int64("seed", 11, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of one timed phase")
		trace   = flag.Int("trace", 0, "1 records spans around each layer and reports the per-layer metrics; in a suite, as a second pass at a quarter length")
		count   = flag.Int("count", 1, "suite: untraced passes per workload, on consecutive seeds; the document keeps their median and quartiles")
		out     = flag.String("out", "bench/out", "directory for the suite document and the spans of traced passes")
		timeout = flag.Duration("timeout", 170*time.Second, "watchdog per pass: dump goroutines and exit 2 when a pass runs longer")
		compare = flag.Bool("compare", false, "compare two suite documents given as arguments; exit 1 on any worse row")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: lokibench -compare a.json b.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		os.Exit(runDriver(w, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *out}, *timeout))
	default:
		os.Exit(runSuite(*seed, *seconds, *trace != 0, *count, *out, *timeout))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lokibench: "+format+"\n", args...)
	os.Exit(2)
}

// runPass runs one pass under the watchdog and then checks that the pass
// left nothing behind: the goroutine count must return to what it was.
func runPass(w *workload, cfg runConfig, timeout time.Duration) (*outcome, error) {
	dog := time.AfterFunc(timeout, func() {
		fmt.Fprintf(os.Stderr, "lokibench: %s exceeded -timeout %v; goroutines:\n", w.name, timeout)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(2)
	})
	defer dog.Stop()
	baseline := runtime.NumGoroutine()
	o, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// Connection and worker goroutines end asynchronously after their
	// owners' Close and Stop return; give them a moment.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		o.violate("%d goroutines outlived the pass (baseline %d)", n-baseline, baseline)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	}
	return o, nil
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reported selects the declared metrics of the pass, in declaration order.
// Every declared metric is reported; one the pass did not set reads 0.
func reported(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}

func printMetrics(workload string, defs []metricDef, got map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", workload, d.Name, got[d.Name], d.Unit)
	}
}

func printViolations(w string, o *outcome) {
	for _, v := range o.violations {
		fmt.Fprintf(os.Stderr, "lokibench: %s: check failed: %s\n", w, v)
	}
	if o.unresolved != "" {
		fmt.Fprintf(os.Stderr, "lokibench: %s: unresolved: %s\n", w, o.unresolved)
	}
}

// runDriver is the BENCHMARK.json contract: one pass, every end-to-end metric
// on an untraced pass or every per-layer metric on a traced one, as one JSON
// object on the last line.
func runDriver(w *workload, cfg runConfig, timeout time.Duration) int {
	o, err := runPass(w, cfg, timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lokibench:", err)
		return 2
	}
	defs, got := endToEnd, o.e2e
	if cfg.trace {
		defs, got = perLayer, o.layer
	}
	printMetrics(w.name, defs, got)
	printViolations(w.name, o)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, reported(defs, got)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lokibench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !o.correct() {
		return 1
	}
	return 0
}

// environment is written into every suite document.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Count      int     `json:"count"`
}

// sample is one end-to-end metric over the suite's passes of a workload.
type sample struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadDoc struct {
	Name       string            `json:"name"`
	Why        string            `json:"why"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Unresolved string            `json:"unresolved,omitempty"`
	Violations []string          `json:"violations,omitempty"`
	EndToEnd   map[string]sample `json:"end_to_end"`
	PerLayer   map[string]value  `json:"per_layer,omitempty"`
}

type document struct {
	Env       environment   `json:"env"`
	Workloads []workloadDoc `json:"workloads"`
}

// runSuite runs every workload count times untraced and, when asked, once
// more traced at a quarter of the length. End-to-end numbers come only from
// the untraced passes.
func runSuite(seed int64, seconds float64, trace bool, count int, outDir string, timeout time.Duration) int {
	doc := document{Env: environment{
		Commit: commit, Go: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Count: count,
	}}
	ok := true
	for i := range workloads {
		w := &workloads[i]
		wd := workloadDoc{Name: w.name, Why: w.why, Correct: true, EndToEnd: map[string]sample{}}
		values := map[string][]float64{}
		var first *outcome
		for c := 0; c < max(count, 1); c++ {
			o, err := runPass(w, runConfig{seed: seed + int64(c), seconds: seconds}, timeout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lokibench:", err)
				return 2
			}
			if first == nil {
				first = o
			}
			wd.absorb(o)
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], o.e2e[d.Name])
			}
		}
		got := map[string]float64{}
		for _, d := range endToEnd {
			vs := values[d.Name]
			s := sample{Unit: d.Unit, Values: append([]float64(nil), vs...)}
			s.Median, s.Q1, s.Q3 = median(vs), quantile(vs, 0.25), quantile(vs, 0.75)
			wd.EndToEnd[d.Name] = s
			got[d.Name] = s.Median
		}
		printMetrics(w.name, endToEnd, got)
		if trace {
			o, err := runPass(w, runConfig{seed: seed, seconds: seconds / 4, trace: true, outDir: outDir}, timeout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lokibench:", err)
				return 2
			}
			// The same seed publishes the same plans over the rounds both
			// passes ran, unless a wall-clock-truncated solve intervened.
			if n := min(len(o.checksums), len(first.checksums)); n > 0 && !o.truncated && !first.truncated &&
				o.checksums[n-1] != first.checksums[n-1] {
				o.violate("timed and traced passes published different plans over their first %d rounds", n)
			}
			wd.absorb(o)
			wd.PerLayer = reported(perLayer, o.layer)
			printMetrics(w.name, perLayer, o.layer)
		}
		if wd.Unresolved != "" {
			fmt.Printf("%s unresolved: %s\n", w.name, wd.Unresolved)
		}
		ok = ok && wd.Correct
		doc.Workloads = append(doc.Workloads, wd)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lokibench:", err)
		return 2
	}
	path := fmt.Sprintf("%s/lokibench-%s-seed%d.json", outDir, commit, seed)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lokibench:", err)
		return 2
	}
	fmt.Println("wrote", path)
	if !ok {
		return 1
	}
	return 0
}

// absorb folds one pass's checks into the workload's record.
func (wd *workloadDoc) absorb(o *outcome) {
	printViolations(wd.Name, o)
	wd.Attempted += o.attempted
	wd.Failed += o.failed
	wd.Correct = wd.Correct && o.correct()
	wd.Violations = append(wd.Violations, o.violations...)
	if o.unresolved != "" {
		wd.Unresolved = o.unresolved
	}
}
