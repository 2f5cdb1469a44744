// Package telemetry is the serving system's observability plane: a registry
// of typed counters, gauges, and histograms stamped with engine-clock
// timestamps; a per-worker collector the serving engine feeds on
// enqueue/dequeue/batch/swap/fault events (queue depth, occupancy, in-flight
// batch size, served QPS, effective speed factor — the signals a
// saturation-driven fast loop needs between MILP rounds); and a sampled
// request tracer whose span trees are byte-reproducible on the simulator.
//
// The package is deliberately dependency-free (standard library only) so any
// layer — engines, arbiter, ingress — can record into it without import
// cycles. All types are safe for concurrent use; on the discrete-event
// simulator every update happens on the single event goroutine, so
// registering telemetry perturbs no RNG stream and leaves serving behavior
// bit-for-bit unchanged.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a metric family's type.
type Kind int

// The three metric kinds of the registry, matching the Prometheus exposition
// TYPE keywords.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the kind's Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name=value pair attached to a series.
type Label struct {
	Key, Value string
}

// Labels is an ordered label set. Callers may pass keys in any order; the
// registry sorts them by key so the same set always addresses the same
// series.
type Labels []Label

// L is a convenience constructor: L("tenant", "traffic", "worker", "3")
// builds the label set {tenant="traffic", worker="3"}. It panics on an odd
// number of arguments (a programming error, like fmt verb mismatches).
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("telemetry: L needs key/value pairs")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

// encode renders the sorted label set in exposition form
// (`{a="x",b="y"}`), which doubles as the series key. Empty sets encode to
// the empty string.
func (ls Labels) encode() string {
	if len(ls) == 0 {
		return ""
	}
	sorted := append(Labels(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// series is one labeled stream within a family. value holds the counter or
// gauge value; histograms use buckets/sum/count instead. atSec is the
// engine-clock time of the last update.
type series struct {
	labels string // encoded label set (sorted)
	value  float64
	atSec  float64

	// Histogram state: cumulative counts are derived at exposition time.
	bucketN []uint64
	sum     float64
	count   uint64
}

// family is one named metric with its help text, kind, and series.
type family struct {
	name    string
	help    string
	kind    Kind
	bounds  []float64 // histogram bucket upper bounds (excluding +Inf)
	byLabel map[string]*series
}

// Registry holds metric families and hands out typed handles. The zero value
// is not usable; build one with NewRegistry. A nil *Registry is a valid
// "telemetry off" value: handle constructors on nil return nil handles whose
// methods are no-ops.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []*Collector // folded into their series before every read
}

// NewRegistry creates an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// lookup finds or creates the (family, series) pair. It panics when the same
// metric name is registered twice with different kinds — a wiring bug better
// caught loudly at construction than rendered as corrupt exposition.
func (r *Registry) lookup(name, help string, kind Kind, bounds []float64, labels Labels) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byLabel: map[string]*series{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	key := labels.encode()
	s := f.byLabel[key]
	if s == nil {
		s = &series{labels: key}
		if kind == KindHistogram {
			s.bucketN = make([]uint64, len(f.bounds)+1)
		}
		f.byLabel[key] = s
	}
	return s
}

// Counter is a monotonically increasing series handle. A nil *Counter is a
// valid no-op (telemetry off).
type Counter struct {
	r *Registry
	s *series
}

// Counter returns the counter series for the labeled metric, creating family
// and series on first use. Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{r: r, s: r.lookup(name, help, KindCounter, nil, labels)}
}

// Add increments the counter by delta at engine time nowSec. Negative deltas
// are ignored (counters only go up).
func (c *Counter) Add(nowSec, delta float64) {
	if c == nil || delta <= 0 {
		return
	}
	c.r.mu.Lock()
	c.s.value += delta
	c.s.atSec = nowSec
	c.r.mu.Unlock()
}

// Gauge is a settable series handle. A nil *Gauge is a valid no-op.
type Gauge struct {
	r *Registry
	s *series
}

// Gauge returns the gauge series for the labeled metric, creating family and
// series on first use. Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{r: r, s: r.lookup(name, help, KindGauge, nil, labels)}
}

// Set records the gauge's current value at engine time nowSec.
func (g *Gauge) Set(nowSec, v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.s.value = v
	g.s.atSec = nowSec
	g.r.mu.Unlock()
}

// Histogram is a bucketed distribution handle. A nil *Histogram is a valid
// no-op.
type Histogram struct {
	r      *Registry
	s      *series
	bounds []float64
}

// Histogram returns the histogram series for the labeled metric with the
// given bucket upper bounds (ascending; +Inf is implicit). The bounds of the
// first registration win for the whole family. Returns nil (a no-op handle)
// on a nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	s := r.lookup(name, help, KindHistogram, b, labels)
	r.mu.Lock()
	fb := r.families[name].bounds
	r.mu.Unlock()
	return &Histogram{r: r, s: s, bounds: fb}
}

// Observe records one sample at engine time nowSec.
func (h *Histogram) Observe(nowSec, v float64) {
	if h == nil {
		return
	}
	h.r.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.s.bucketN[i]++
	h.s.sum += v
	h.s.count++
	h.s.atSec = nowSec
	h.r.mu.Unlock()
}

// Point is one series' current state, for programmatic consumers (the future
// saturation analyzer reads these instead of scraping text).
type Point struct {
	// Name is the metric family name; Labels the encoded label set
	// (`{a="x"}`; empty for unlabeled series).
	Name   string
	Labels string
	Kind   Kind
	// Value is the counter/gauge value; histograms report Sum and Count
	// with Value left at Sum for convenience.
	Value float64
	Sum   float64
	Count uint64
	// AtSec is the engine-clock time of the last update (virtual seconds on
	// the simulator, scaled wall seconds on the wall-clock engine); a
	// collector's series carry the time of its latest event or Sample.
	AtSec float64
}

// Gather returns every series' current state, sorted by name then label set —
// the deterministic programmatic twin of WritePrometheus.
func (r *Registry) Gather() []Point {
	if r == nil {
		return nil
	}
	r.foldCollectors()
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Point
	for _, f := range r.families {
		for _, s := range f.byLabel {
			p := Point{Name: f.name, Labels: s.labels, Kind: f.kind, Value: s.value, AtSec: s.atSec}
			if f.kind == KindHistogram {
				p.Sum = s.sum
				p.Count = s.count
				p.Value = s.sum
			}
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by label
// set, HELP/TYPE headers, histogram _bucket/_sum/_count expansion.
// Timestamps are omitted from the exposition — engine-clock seconds are not
// wall milliseconds; programmatic readers get them from Gather. The output
// is deterministic: the same registry state always renders the same bytes.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.foldCollectors()
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.byLabel))
		for k := range f.byLabel {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.byLabel[k]
			if f.kind != KindHistogram {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, fmtFloat(s.value))
				continue
			}
			cum := uint64(0)
			for i, n := range s.bucketN {
				cum += n
				le := "+Inf"
				if i < len(f.bounds) {
					le = fmtFloat(f.bounds[i])
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLE(s.labels, le), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, fmtFloat(s.sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, s.count)
		}
	}
	r.mu.Unlock()
	io.WriteString(w, b.String())
}

// foldCollectors brings every registered collector's series up to its rows.
// It runs before a read takes the registry's lock, because each fold takes
// its collector's lock and then the registry's.
func (r *Registry) foldCollectors() {
	r.mu.Lock()
	cols := r.collectors
	r.mu.Unlock()
	for _, c := range cols {
		c.fold(r)
	}
}

// withLE splices the le label into an encoded label set.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// fmtFloat renders a metric value with the shortest exact representation,
// keeping the exposition deterministic and diff-friendly.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
