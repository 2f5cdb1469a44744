// Package ingress is the serving system's front door: per-tenant admission
// control and load shedding ahead of the worker queues, an HTTP server
// exposing each pipeline over real sockets, and the load-generator library
// behind cmd/lokiload.
//
// The admission controller is the piece the queues cannot provide on their
// own. Worker queues bound *waiting* work, but by the time an over-demand
// request is dropped at a full queue it has already burned a network hop and
// queue slots, and every request behind it waits longer — under sustained
// overload the whole admitted population drifts past the SLO before any
// feedback reaches the client. Admission control inverts that: each tenant's
// token bucket tracks the capacity the joint allocator actually granted it
// (refreshed on every plan publication), and arrivals beyond that rate are
// refused immediately with a Retry-After hint, before they touch a queue.
// Shed requests never enter the serving metrics' admitted population; they
// are accounted separately so goodput and shed rate are both visible.
package ingress

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"loki/internal/core"
)

// ErrShed is the sentinel admission failures unwrap to: the request was
// refused by a tenant's admission controller (rate or saturation), not
// failed by the serving system. Callers match it with errors.Is and recover
// the retry hint with errors.As on *ShedError.
var ErrShed = errors.New("ingress: request shed by admission control")

// ShedError is a shed admission decision carrying the controller's
// Retry-After hint. It unwraps to ErrShed.
type ShedError struct {
	// RetryAfterSec is the controller's estimate of when capacity will next
	// be available: the token bucket's refill time for rate sheds, a
	// queue-drain allowance for saturation sheds.
	RetryAfterSec float64

	// Tier is the service tier of the pipeline whose traffic was refused
	// (zero for untiered pipelines). Under contention the arbiter grants
	// low tiers less capacity, so their admission rates fall first and
	// their traffic sheds first; the tier on the error lets 429 responses
	// carry that decision to the client.
	Tier int
}

// Error renders the shed decision with its retry hint.
func (e *ShedError) Error() string {
	return fmt.Sprintf("ingress: request shed, retry after %.3fs", e.RetryAfterSec)
}

// Unwrap ties ShedError to the ErrShed sentinel for errors.Is.
func (e *ShedError) Unwrap() error { return ErrShed }

// TokenBucket is a refill-on-demand token bucket over an external clock (the
// engines' scaled seconds, so admission math is identical on virtual and
// wall time). Allow refills rate×elapsed tokens capped at the burst depth
// and admits by consuming one.
type TokenBucket struct {
	rate   float64 // tokens (requests) per second
	burst  float64 // bucket depth
	tokens float64
	last   float64
}

// NewTokenBucket returns a bucket that starts full (a fresh tenant may burst
// up to its depth immediately).
func NewTokenBucket(rate, burst, now float64) *TokenBucket {
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// refill advances the bucket to now at the current rate.
func (b *TokenBucket) refill(now float64) {
	if now > b.last {
		b.tokens = math.Min(b.burst, b.tokens+(now-b.last)*b.rate)
		b.last = now
	}
}

// SetRate retargets the bucket. The elapsed interval is refilled at the old
// rate first; a deeper bucket is topped up by the depth increase (a freshly
// granted tenant may burst immediately), a shallower one is clipped (a
// shrinking grant takes effect immediately). A refresh to the same rate and
// depth — the steady state, since grants are re-published every adaptation
// round — changes nothing.
func (b *TokenBucket) SetRate(rate, burst, now float64) {
	b.refill(now)
	if burst > b.burst {
		b.tokens += burst - b.burst
	}
	b.rate = rate
	b.burst = burst
	if b.tokens > burst {
		b.tokens = burst
	}
}

// Allow consumes one token if available. On refusal it returns the time
// until the next token refills (infinite while the rate is zero).
func (b *TokenBucket) Allow(now float64) (ok bool, waitSec float64) {
	b.refill(now)
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if b.rate <= 0 {
		return false, math.Inf(1)
	}
	return false, (1 - b.tokens) / b.rate
}

// Tokens reports the level the bucket would hold at now (for tests and
// introspection; nothing is consumed).
func (b *TokenBucket) Tokens(now float64) float64 {
	b.refill(now)
	return b.tokens
}

// rateWindowSec is the trailing window the admitted/shed QPS gauges average
// over.
const rateWindowSec = 5

// burstSec is the token bucket's depth in seconds of target rate: how much
// of an instantaneous burst is absorbed before rate shedding starts.
const burstSec = 1.0

// Config tunes one tenant's admission controller. Zero values take the
// defaults noted on each field.
type Config struct {
	// SLOSec is the tenant's end-to-end latency SLO, used to size the
	// saturation limit and the saturation Retry-After hint. Required.
	SLOSec float64
	// TargetUtilization scales the granted rate handed to SetRate before it
	// becomes the admission target (default 1.0). Granted routes carry the
	// planner's headroom-inflated throughput ceiling; a tenant admitted at
	// 100% of that ceiling serves at full utilization, where queueing delay
	// alone blows the SLO. Callers that know the planner's headroom should
	// pass 1/(1+headroom) so admission targets the demand the plan was
	// actually sized for.
	TargetUtilization float64
}

func (c *Config) defaults() {
	if c.TargetUtilization == 0 {
		c.TargetUtilization = 1.0
	}
}

// rateSlot is one second of the trailing admitted/shed gauge window.
type rateSlot struct {
	sec            int64
	admitted, shed int64
}

// Admission is one tenant's admission controller: a token bucket whose
// target rate follows the tenant's granted capacity, plus a saturation
// limiter on in-flight work. It sits in front of the tenant's queues — every
// injection path (HTTP, Submit, trace Feed) consults Admit before a request
// touches the serving system. All methods are safe for concurrent use.
type Admission struct {
	mu          sync.Mutex
	cfg         Config
	tb          *TokenBucket
	rate        float64
	maxInFlight int64
	admitted    int64
	shed        int64
	slots       [rateWindowSec + 1]rateSlot
}

// NewAdmission builds an admission controller with no capacity granted yet:
// everything is shed until the first SetRate (the control plane publishes a
// plan before the first injection returns, so in practice the window is
// empty).
func NewAdmission(cfg Config) *Admission {
	cfg.defaults()
	return &Admission{cfg: cfg, tb: NewTokenBucket(0, 0, 0)}
}

// SetRate retargets the controller to a new granted rate (requests per
// second) at the given engine time: the rate is scaled by TargetUtilization,
// the bucket refills at the result with a burstSec-deep burst allowance, and
// the saturation limit becomes qps × SLOSec. By Little's law that in-flight
// population is exactly the backlog the granted capacity can drain within one
// SLO — admitting beyond it guarantees the queueing delay alone exceeds the
// SLO, so even under-rate arrivals are shed past that point. Called on every
// plan publication.
func (a *Admission) SetRate(now, qps float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	qps *= a.cfg.TargetUtilization
	if qps < 0 {
		qps = 0
	}
	a.rate = qps
	burst := math.Max(qps*burstSec, 1)
	a.tb.SetRate(qps, burst, now)
	a.maxInFlight = int64(math.Ceil(qps * a.cfg.SLOSec))
	if a.maxInFlight < 1 {
		a.maxInFlight = 1
	}
}

// Rate returns the current target rate (the granted capacity at the last
// SetRate).
func (a *Admission) Rate() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rate
}

// Admit decides one arrival at the given engine time with the tenant's
// current in-flight count. Saturation is checked first (a saturated tenant
// keeps its tokens for when the backlog drains); then the token bucket. On
// refusal retryAfterSec carries the Retry-After hint: the bucket's refill
// time for rate sheds, half an SLO for saturation sheds, floored at a
// millisecond so a hint is never zero.
func (a *Admission) Admit(now float64, inFlight int64) (ok bool, retryAfterSec float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if inFlight >= a.maxInFlight {
		a.record(now, false)
		return false, math.Max(a.cfg.SLOSec/2, 0.001)
	}
	ok, wait := a.tb.Allow(now)
	a.record(now, ok)
	if ok {
		return true, 0
	}
	if math.IsInf(wait, 1) {
		wait = 1
	}
	return false, math.Max(wait, 0.001)
}

// record updates the totals and the trailing per-second gauge window.
// Callers hold a.mu.
func (a *Admission) record(now float64, admitted bool) {
	sec := int64(now)
	if sec < 0 {
		sec = 0
	}
	s := &a.slots[sec%int64(len(a.slots))]
	if s.sec != sec {
		*s = rateSlot{sec: sec}
	}
	if admitted {
		a.admitted++
		s.admitted++
	} else {
		a.shed++
		s.shed++
	}
}

// Totals returns the cumulative admitted and shed counts.
func (a *Admission) Totals() (admitted, shed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted, a.shed
}

// Rates returns the admitted and shed request rates averaged over the
// trailing window (a few seconds), the live gauges behind the public
// Snapshot's AdmittedQPS/ShedQPS.
func (a *Admission) Rates(now float64) (admittedQPS, shedQPS float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	sec := int64(now)
	var adm, shed int64
	for i := range a.slots {
		s := &a.slots[i]
		if s.sec > sec-rateWindowSec && s.sec <= sec {
			adm += s.admitted
			shed += s.shed
		}
	}
	return float64(adm) / rateWindowSec, float64(shed) / rateWindowSec
}

// FrontendRate derives a tenant's admission target from its standing routing
// tables: the summed service rate (per-class profiled QPS) of the root-task
// replicas — exactly the entry capacity the joint allocator granted on the
// last adaptation round. Plans are sized for headroom-inflated demand, so
// admitting at this rate keeps the granted capacity fully usable without
// letting arrivals outrun it. Returns zero before the first publication.
func FrontendRate(r *core.Routes) float64 {
	if r == nil {
		return 0
	}
	sum := 0.0
	for i := range r.Specs {
		if r.Specs[i].Task == 0 {
			sum += r.Specs[i].QPS
		}
	}
	return sum
}
