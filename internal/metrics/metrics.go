// Package metrics collects the evaluation metrics of §6.1: system accuracy
// (mean accuracy over answered requests), SLO violation ratio (requests that
// finish late or are dropped), and cluster utilization (active workers over
// cluster size), both as whole-run summaries and as time series for the
// Figure 5/6 plots.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Collector aggregates request outcomes into fixed-width time buckets.
// All methods are safe for concurrent use, so live readers (System.Report
// on the wall-clock engine) may summarize while the engine records.
type Collector struct {
	bucketSec float64
	servers   int // cluster size, for utilization

	mu      sync.Mutex
	buckets []bucket

	// Hardware-class accounting, armed by SetClasses: per-class occupancy
	// sums (server-seconds, at the engines' one-second sampling cadence)
	// and the accrued dollar cost.
	classNames []string
	classCost  []float64 // $/server-hour, aligned with classNames
	classSum   []float64
	classN     int
	costHours  float64 // accrued dollars (cost/hour × hours)

	// latHist counts answered requests per latency bucket (latencyBounds
	// upper bounds plus a +Inf overflow bucket), feeding the summary's
	// latency quantiles.
	latHist []int64
}

// latencyBounds are the upper bounds (seconds) of the response-time
// histogram every collector records in Completed; the histogram has one
// extra +Inf bucket past the last bound. Fixed bounds keep per-tenant
// histograms mergeable elementwise (see Merge).
var latencyBounds = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type bucket struct {
	arrivals    int
	admitted    int // passed an admission controller (zero when none is armed)
	shed        int // refused by admission control before entering the system
	completed   int // answered in time
	late        int // answered past the deadline
	dropped     int // preemptively dropped or lost
	violByArr   int // late or dropped, attributed to the arrival's bucket
	accuracySum float64
	accuracyN   int
	latencySum  float64
	demandSum   float64 // integral of offered demand (QPS × samples)
	demandN     int
	serversSum  float64
	serversN    int
}

// NewCollector creates a collector with the given bucket width.
func NewCollector(bucketSec float64, servers int) *Collector {
	return &Collector{bucketSec: bucketSec, servers: servers}
}

func (c *Collector) at(t float64) *bucket {
	i := int(t / c.bucketSec)
	if i < 0 {
		i = 0
	}
	for len(c.buckets) <= i {
		c.buckets = append(c.buckets, bucket{})
	}
	return &c.buckets[i]
}

// Arrival records a request entering the system at time t.
func (c *Collector) Arrival(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(t).arrivals++
}

// Admitted records a request passing admission control at time t. It is
// recorded in addition to Arrival (admitted requests are arrivals), only on
// systems with an admission controller armed — on systems without one both
// admitted and shed stay zero, which is how reports distinguish "no
// admission control" from "nothing shed".
func (c *Collector) Admitted(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(t).admitted++
}

// Shed records a request refused by admission control at time t. Shed
// requests never entered the system: they are not arrivals, and they carry
// no SLO violation — attainment is measured over the admitted population,
// with the shed series reported alongside.
func (c *Collector) Shed(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(t).shed++
}

// Completed records a request answered at time t. late marks completion past
// its deadline; latency is the end-to-end response time; accuracy is the
// mean end-to-end accuracy of its answers.
func (c *Collector) Completed(t float64, late bool, latency, accuracy float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.at(t)
	if late {
		b.late++
		// Also charge the violation to the bucket the request *arrived* in
		// (t-latency), so windowed attainment can pair violations with the
		// same population as the arrival counts.
		c.at(t-latency).violByArr++
	} else {
		b.completed++
	}
	b.latencySum += latency
	if c.latHist == nil {
		c.latHist = make([]int64, len(latencyBounds)+1)
	}
	i := 0
	for i < len(latencyBounds) && latency > latencyBounds[i] {
		i++
	}
	c.latHist[i]++
	if !math.IsNaN(accuracy) {
		b.accuracySum += accuracy
		b.accuracyN++
	}
}

// Dropped records a request dropped (fully or partially) at time t; arrived
// is when the request entered the system, which is the bucket the violation
// is charged to for windowed attainment (see Point.Violations).
func (c *Collector) Dropped(t, arrived float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at(t).dropped++
	c.at(arrived).violByArr++
}

// SampleDemand records the instantaneous offered demand at time t.
func (c *Collector) SampleDemand(t, qps float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.at(t)
	b.demandSum += qps
	b.demandN++
}

// SampleServers records the number of active servers at time t.
func (c *Collector) SampleServers(t float64, servers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.at(t)
	b.serversSum += float64(servers)
	b.serversN++
}

// SetClasses arms hardware-class accounting: names and per-server-hour
// costs, in class order. Until it is called, SampleClassServers is a no-op
// and the summary carries no class or cost columns — the homogeneous
// zero-cost compatibility path.
func (c *Collector) SetClasses(names []string, costPerHour []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.classNames = append([]string(nil), names...)
	c.classCost = append([]float64(nil), costPerHour...)
	c.classSum = make([]float64, len(names))
}

// SampleClassServers records one second of per-class occupancy (the engines
// sample on their one-second housekeeping cadence): counts[i] active servers
// of class i, each accruing its class's per-hour cost for that second.
func (c *Collector) SampleClassServers(counts []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.classSum == nil || len(counts) != len(c.classSum) {
		return
	}
	c.classN++
	for i, n := range counts {
		c.classSum[i] += float64(n)
		c.costHours += float64(n) * c.classCost[i] / 3600
	}
}

// Point is one time-bucket of the series.
type Point struct {
	TimeSec        float64
	DemandQPS      float64
	ServedQPS      float64 // completed (on time or late) per second
	Accuracy       float64 // mean accuracy of answers in the bucket
	ViolationRatio float64 // (late+dropped)/arrivals
	Utilization    float64 // active servers / cluster size
	Servers        float64
	// GoodputQPS counts only on-time completions per second (ServedQPS
	// minus the late ones) — the overload-sweep metric that shedding is
	// meant to protect.
	GoodputQPS float64
	Arrivals   int // requests arriving in the bucket
	// Shed counts requests refused by admission control in the bucket; they
	// are not part of Arrivals (they never entered the system).
	Shed int
	// Violations counts requests that finished late or were dropped,
	// attributed to the bucket they *arrived* in (late/dropped above are
	// attributed to completion/drop time). Pairing Violations with Arrivals
	// gives exact request-weighted SLO attainment over a window of buckets.
	Violations int
}

// Series returns per-bucket points.
func (c *Collector) Series() []Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Point, len(c.buckets))
	for i, b := range c.buckets {
		p := Point{TimeSec: float64(i) * c.bucketSec, Arrivals: b.arrivals, Shed: b.shed, Violations: b.violByArr}
		if b.demandN > 0 {
			p.DemandQPS = b.demandSum / float64(b.demandN)
		}
		p.ServedQPS = float64(b.completed+b.late) / c.bucketSec
		p.GoodputQPS = float64(b.completed) / c.bucketSec
		if b.accuracyN > 0 {
			p.Accuracy = b.accuracySum / float64(b.accuracyN)
		}
		if b.arrivals > 0 {
			p.ViolationRatio = float64(b.late+b.dropped) / float64(b.arrivals)
		}
		if b.serversN > 0 {
			p.Servers = b.serversSum / float64(b.serversN)
			if c.servers > 0 {
				p.Utilization = p.Servers / float64(c.servers)
			}
		}
		out[i] = p
	}
	return out
}

// Summary is the whole-run aggregate.
type Summary struct {
	Arrivals       int
	Admitted       int // passed admission control (zero when none is armed)
	Shed           int // refused by admission control; offered load = Arrivals + Shed
	Completed      int // answered on time
	Late           int
	Dropped        int
	ViolationRatio float64 // (late+dropped)/arrivals
	MeanAccuracy   float64 // over answered requests
	MinAccuracy    float64 // lowest bucket mean (the "max accuracy drop" metric)
	MeanLatency    float64 // over answered requests (seconds)
	MeanServers    float64
	MinServers     float64
	MaxServers     float64

	// Hardware-class accounting (nil/zero unless the collector's SetClasses
	// armed it): mean active servers per class, the class names, and the
	// accrued server cost in dollars (Σ active × $/h × hours).
	ClassNames         []string
	MeanServersByClass []float64
	CostHours          float64

	// latencyHistogram counts answered requests per latencyBounds bucket
	// (plus the final +Inf bucket); LatencyP50 and LatencyP99 are response
	// -time quantiles interpolated from it (seconds). Nil/zero before the
	// first answer.
	latencyHistogram []int64
	LatencyP50       float64
	LatencyP99       float64
}

// histogramQuantile interpolates the q-quantile from a latencyBounds-shaped
// bucket histogram, Prometheus histogram_quantile style: the target rank is
// located in its bucket and placed linearly between the bucket's bounds. A
// rank landing in the +Inf bucket reports the last finite bound.
func histogramQuantile(hist []int64, q float64) float64 {
	var total int64
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range hist {
		cum += n
		if float64(cum) >= rank {
			if i >= len(latencyBounds) {
				return latencyBounds[len(latencyBounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = latencyBounds[i-1]
			}
			hi := latencyBounds[i]
			if n == 0 {
				return hi
			}
			frac := (rank - float64(cum-n)) / float64(n)
			return lo + (hi-lo)*frac
		}
	}
	return latencyBounds[len(latencyBounds)-1]
}

// Summarize aggregates the whole run.
func (c *Collector) Summarize() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Summary
	accSum := 0.0
	accN := 0
	srvSum, srvN := 0.0, 0
	s.MinAccuracy = math.Inf(1)
	s.MinServers = math.Inf(1)
	latSum := 0.0
	for _, b := range c.buckets {
		s.Arrivals += b.arrivals
		s.Admitted += b.admitted
		s.Shed += b.shed
		s.Completed += b.completed
		s.Late += b.late
		s.Dropped += b.dropped
		accSum += b.accuracySum
		accN += b.accuracyN
		latSum += b.latencySum
		if b.accuracyN > 0 {
			if m := b.accuracySum / float64(b.accuracyN); m < s.MinAccuracy {
				s.MinAccuracy = m
			}
		}
		if b.serversN > 0 {
			mean := b.serversSum / float64(b.serversN)
			srvSum += mean
			srvN++
			if mean < s.MinServers {
				s.MinServers = mean
			}
			if mean > s.MaxServers {
				s.MaxServers = mean
			}
		}
	}
	if s.Arrivals > 0 {
		s.ViolationRatio = float64(s.Late+s.Dropped) / float64(s.Arrivals)
	}
	if accN > 0 {
		s.MeanAccuracy = accSum / float64(accN)
	}
	if n := s.Completed + s.Late; n > 0 {
		s.MeanLatency = latSum / float64(n)
	}
	if srvN > 0 {
		s.MeanServers = srvSum / float64(srvN)
	}
	if math.IsInf(s.MinAccuracy, 1) {
		s.MinAccuracy = 0
	}
	if math.IsInf(s.MinServers, 1) {
		s.MinServers = 0
	}
	if c.classN > 0 {
		s.ClassNames = append([]string(nil), c.classNames...)
		s.MeanServersByClass = make([]float64, len(c.classSum))
		for i, sum := range c.classSum {
			s.MeanServersByClass[i] = sum / float64(c.classN)
		}
		s.CostHours = c.costHours
	}
	if c.latHist != nil {
		s.latencyHistogram = append([]int64(nil), c.latHist...)
		s.LatencyP50 = histogramQuantile(c.latHist, 0.50)
		s.LatencyP99 = histogramQuantile(c.latHist, 0.99)
	}
	return s
}

// Merge combines per-tenant summaries into one pool-wide aggregate:
// request counts sum; the violation ratio is recomputed from the summed
// counts; mean accuracy and latency are weighted by each summary's answered
// requests; the server columns add across summaries (tenants partition one
// pool, so the sum is the pool's activity — Min/Max sums are bounds, not
// exact joint extrema, since the per-tenant extremes need not coincide in
// time).
func Merge(sums ...Summary) Summary {
	var out Summary
	accSum, latSum := 0.0, 0.0
	answered := 0
	for _, s := range sums {
		out.Arrivals += s.Arrivals
		out.Admitted += s.Admitted
		out.Shed += s.Shed
		out.Completed += s.Completed
		out.Late += s.Late
		out.Dropped += s.Dropped
		n := s.Completed + s.Late
		accSum += s.MeanAccuracy * float64(n)
		latSum += s.MeanLatency * float64(n)
		answered += n
		out.MeanServers += s.MeanServers
		out.MinServers += s.MinServers
		out.MaxServers += s.MaxServers
		out.CostHours += s.CostHours
		// Per-class means add across tenants sharing one pool, like the
		// server columns; the first summary with classes fixes the names.
		if len(s.MeanServersByClass) > 0 {
			if out.MeanServersByClass == nil {
				out.ClassNames = append([]string(nil), s.ClassNames...)
				out.MeanServersByClass = make([]float64, len(s.MeanServersByClass))
			}
			if len(s.MeanServersByClass) == len(out.MeanServersByClass) {
				for i, v := range s.MeanServersByClass {
					out.MeanServersByClass[i] += v
				}
			}
		}
		// Latency histograms share the fixed latencyBounds layout, so they
		// merge by elementwise sum; the quantiles are recomputed below from
		// the pooled population.
		if len(s.latencyHistogram) > 0 {
			if out.latencyHistogram == nil {
				out.latencyHistogram = make([]int64, len(s.latencyHistogram))
			}
			if len(s.latencyHistogram) == len(out.latencyHistogram) {
				for i, v := range s.latencyHistogram {
					out.latencyHistogram[i] += v
				}
			}
		}
	}
	if out.latencyHistogram != nil {
		out.LatencyP50 = histogramQuantile(out.latencyHistogram, 0.50)
		out.LatencyP99 = histogramQuantile(out.latencyHistogram, 0.99)
	}
	if out.Arrivals > 0 {
		out.ViolationRatio = float64(out.Late+out.Dropped) / float64(out.Arrivals)
	}
	if answered > 0 {
		out.MeanAccuracy = accSum / float64(answered)
		out.MeanLatency = latSum / float64(answered)
	}
	minAcc := math.Inf(1)
	for _, s := range sums {
		if s.Completed+s.Late > 0 && s.MinAccuracy < minAcc {
			minAcc = s.MinAccuracy
		}
	}
	if !math.IsInf(minAcc, 1) {
		out.MinAccuracy = minAcc
	}
	return out
}

// FormatSeries renders series points as an aligned table, one row per
// bucket, for the experiment CLIs.
func FormatSeries(points []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %12s %10s %10s %12s\n",
		"time(s)", "demand(qps)", "served(qps)", "accuracy", "util", "slo-viol")
	for _, p := range points {
		fmt.Fprintf(&b, "%10.0f %12.1f %12.1f %10.4f %10.2f %12.4f\n",
			p.TimeSec, p.DemandQPS, p.ServedQPS, p.Accuracy, p.Utilization, p.ViolationRatio)
	}
	return b.String()
}
