package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"loki/internal/profiles"
	"loki/internal/telemetry"
)

// Planner produces a resource allocation plan for a demand estimate. The
// MILP-based Allocator is Loki's planner; the baselines in
// internal/baselines (InferLine-like hardware scaling, Proteus-like
// pipeline-agnostic accuracy scaling) plug in here too, so every approach
// runs on the identical serving substrate.
type Planner interface {
	Allocate(demand float64) (*Plan, error)
}

// CappedPlanner is a Planner that can additionally solve under a temporary
// server budget smaller than its configured cluster size. The
// MultiController requires it for every tenant when more than one pipeline
// shares the pool, because contention is resolved by re-solving each
// pipeline's allocation inside its granted partition.
type CappedPlanner interface {
	Planner
	// AllocateCapped is Allocate with the per-class server counts bounded to
	// caps (one entry per hardware class) for this solve only. Homogeneous
	// pools pass a single-element vector.
	AllocateCapped(demand float64, caps []int) (*Plan, error)
}

// Tenant is one pipeline registered with a MultiController: its own
// Metadata Store (demand estimate, profiles, SLO), its own planner, and the
// share of the shared pool it is guaranteed under contention. Publish
// delivers the tenant's plan and routing tables to the serving engine.
type Tenant struct {
	Name string
	Meta *MetadataStore
	// Alloc produces this tenant's allocation plans. With more than one
	// tenant it must implement CappedPlanner.
	Alloc Planner
	// MinShare is the fraction of the pool this tenant is guaranteed when
	// combined demand exceeds the pool. Zero means "unreserved": the
	// unreserved tenants split whatever fraction the explicit shares leave
	// over, equally. Shares only bind under contention — an idle tenant's
	// unneeded guarantee is lent to whoever wants it. On a heterogeneous
	// pool the share applies per hardware class: the floor is a slice of
	// every class, so the guarantee covers fast hardware too.
	MinShare float64
	// RouteHeadroom inflates the demand handed to MostAccurateFirst, so the
	// greedy fill loads every worker to 1/(1+RouteHeadroom) of its profiled
	// capacity instead of exactly 100%. Batch queues at critical load build
	// unbounded waits; this is the slack that keeps queueing delay inside
	// the SLO/2 allowance. Should match the allocator's Headroom.
	RouteHeadroom float64
	// ForecastHorizonSec is how far ahead this tenant's forecaster is
	// consulted when planning (zero means DefaultForecastHorizonSec).
	ForecastHorizonSec float64
	// DemandCapQPS, when positive, caps the demand this tenant plans and
	// routes for. Admission-fronted tenants set it to the largest rate the
	// pool can serve within the SLO (Allocator.MaxCapacity): offered demand
	// beyond it is the admission controller's to shed at the door, not the
	// planner's to absorb with a saturated throughput-optimal plan whose
	// oversized batches miss the SLO by construction. Zero means uncapped —
	// the planner degrades through accuracy scaling into saturation as
	// demand grows, exactly as without admission.
	DemandCapQPS float64
	// Publish delivers a new plan and routing tables to the serving engine.
	Publish func(plan *Plan, routes *Routes)

	// Tier orders degradation across tenants. When the pool cannot cover
	// every tenant's want — or, after an outage, not even every tenant's
	// floor — higher tiers are satisfied first and lower tiers are cut
	// first: floors are granted tier by tier, and leftover capacity flows
	// to the highest unmet tier before any lower one sees a server. Equal
	// tiers everywhere (the default, zero) reproduce the tier-free
	// proportional split bit for bit.
	Tier int

	// CacheDisabled turns the tenant's plan cache off: every solve call
	// reaches the planner. The escape hatch behind the public
	// WithPlannerCache(false) option.
	CacheDisabled bool

	// floorByClass is the resolved per-tenant contention guarantee in whole
	// servers, per hardware class; its total never drops below one replica
	// slot per task.
	floorByClass []int

	cache     map[tenantPlanKey]cachedPlan
	plan      *Plan
	routes    *Routes
	planDmd   float64
	grant     []int // per-class servers currently granted
	allocates int
	truncated int // fresh solves whose branch & bound hit a resource limit
	bbNodes   int // branch-and-bound nodes explored by fresh solves
	lpPivots  int // simplex pivots spent by fresh solves

	// Incremental re-solve tracking. desire is the last desire-pass plan and
	// desireKey the plan-cache key (quantized demand, pool caps) it was solved
	// under; cappedPlan records whether the standing plan came from a capped
	// re-solve inside a grant. A tenant whose key is unchanged and whose
	// desire plan is still reusable is "clean" for the round: the arbiter
	// reuses its plans verbatim — bit-identical to what the plan cache would
	// return — without touching the cache or the solver.
	desire         cachedPlan
	desireKey      tenantPlanKey
	cappedPlan     bool
	greedyReplaced int // MILP solves replaced by the greedy pass
}

// cachedPlan is one solved plan plus the fine-granularity demand bucket it
// was solved in, which gates reuse of provisional plans.
type cachedPlan struct {
	plan *Plan
	// fineBucket is demandBucket(demand, legacyBucketRatio) at solve time.
	fineBucket int
}

// reusable is the one reuse rule of the plan cache and of the arbiter's
// dirty check: the plan answers a later solve under the same key, except
// that a provisional plan — a search a resource limit truncated, or the
// greedy pass alone — is reused only within the fine legacy bucket it was
// solved in. Wide threshold-quantized buckets then never pin a degraded plan
// across a whole demand band: once demand drifts a few percent the solve is
// retried (warm-started from the provisional plan, so quality only ratchets
// up).
func (e cachedPlan) reusable(fine int) bool {
	return e.plan != nil && (!(e.plan.SolveStats.Truncated || e.plan.SolveStats.Greedy) || e.fineBucket == fine)
}

// maxKeyClasses is how many hardware classes a plan-cache key holds inline.
// Real fleets have a handful of classes; anything larger falls back to an
// allocated string encoding.
const maxKeyClasses = 8

// capsOverflow marks a key whose grant vector spilled into the big field.
const capsOverflow = int8(-2)

// tenantPlanKey caches plans per (quantized demand, grant vector) pair: the
// same demand under a different per-class grant is a different MILP. The
// grant vector is packed into a fixed-size array so building a key on the
// per-round lookup path allocates nothing; n is -1 for uncapped solves.
type tenantPlanKey struct {
	bucket int
	n      int8
	caps   [maxKeyClasses]int32
	big    string
}

// planKey builds the cache key for a (quantized demand, grant vector) pair
// without allocating (except on >maxKeyClasses-class fleets).
func planKey(bucket int, caps []int) tenantPlanKey {
	k := tenantPlanKey{bucket: bucket, n: -1}
	switch {
	case caps == nil:
	case len(caps) <= maxKeyClasses:
		k.n = int8(len(caps))
		for i, n := range caps {
			k.caps[i] = int32(n)
		}
	default:
		k.n = capsOverflow
		k.big = encodeCaps(caps)
	}
	return k
}

// encodeCaps renders a per-class grant vector as a compact string — the
// cache-key overflow encoding for fleets with more classes than the inline
// array holds.
func encodeCaps(caps []int) string {
	if caps == nil {
		return ""
	}
	var b strings.Builder
	for i, n := range caps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(n))
	}
	return b.String()
}

// maxCachedPlans bounds a tenant's plan cache. Grant vectors on a contended
// multi-class pool do not repeat, so over the life of a serving process the
// keys never stop coming; the map is cleared wholesale when full rather than
// tracking recency. The bound is far above what a run revisits: no tier-1
// test and none of the plan-fleet, plan-milp and sim-shared benchmark
// workloads reaches 32 entries in one tenant.
const maxCachedPlans = 256

// legacyBucketRatio is the single-pipeline plan-cache granularity (≈4%).
// It predates the threshold-consistent quantization and is kept for
// one-tenant controllers so their seeded runs stay bit-for-bit reproducible
// against the recorded goldens.
const legacyBucketRatio = 1.04

// demandBucket quantizes demand geometrically for plan caching: two demands
// share a bucket when they differ by less than roughly ratio-1 (relative).
// One-tenant controllers use the fine legacyBucketRatio; with several
// tenants the buckets widen to the adaptation threshold — see
// MultiController.bucketRatio.
func demandBucket(d, ratio float64) int {
	if d < 1 {
		return 0
	}
	return int(math.Round(math.Log(d) / math.Log(ratio)))
}

// solve runs the tenant's planner through its plan cache, quantizing demand
// at the given geometric ratio. A nil caps vector solves at the planner's
// own full cluster size; a non-nil per-class grant vector requires the
// CappedPlanner solve. When CacheDisabled is set nothing enters the cache,
// so every call solves fresh. Safe for concurrent use across distinct
// tenants (each tenant owns its cache); callers serialize calls for the same
// tenant.
func (t *Tenant) solve(demand float64, caps []int, ratio float64) (*Plan, error) {
	key := planKey(demandBucket(demand, ratio), caps)
	fine := demandBucket(demand, legacyBucketRatio)
	if e, ok := t.cache[key]; ok && e.reusable(fine) {
		return e.plan, nil
	}
	var plan *Plan
	var err error
	if caps == nil {
		plan, err = t.Alloc.Allocate(demand)
	} else {
		plan, err = t.Alloc.(CappedPlanner).AllocateCapped(demand, caps)
	}
	if err != nil {
		return nil, err
	}
	if !t.CacheDisabled {
		if t.cache == nil {
			t.cache = map[tenantPlanKey]cachedPlan{}
		}
		if len(t.cache) >= maxCachedPlans {
			clear(t.cache)
		}
		t.cache[key] = cachedPlan{plan: plan, fineBucket: fine}
	}
	t.allocates++
	if plan.SolveStats.Truncated {
		t.truncated++
	}
	t.bbNodes += plan.SolveStats.Nodes
	t.lpPivots += plan.SolveStats.LPIters
	return plan, nil
}

// moved reports whether demand deviates from the standing plan's demand by
// at least thr (relative, with a 1-QPS floor on the base).
func (t *Tenant) moved(demand, thr float64) bool {
	base := math.Max(t.planDmd, 1)
	return math.Abs(demand-t.planDmd)/base >= thr
}

// DefaultForecastHorizonSec is the planning horizon when none is configured:
// the Resource Manager's 10-second periodic interval, so a forecast covers
// exactly the window until the next guaranteed re-plan.
const DefaultForecastHorizonSec = 10

// planningDemand is the demand the Resource Manager provisions for: the
// smoothed estimate, raised to the forecaster's horizon prediction when that
// is higher. The asymmetry is deliberate hysteresis — scale-up is proactive
// (the prediction leads the estimate into a spike, so capacity and swap
// pauses are paid during the ramp, not at the crest) while scale-down stays
// reactive (a predicted decay never shrinks capacity below what current
// smoothed demand justifies, so a jittery forecaster cannot thrash the
// cluster). Without a forecaster PredictedDemand returns the estimate and
// this is exactly the reactive demand, bit for bit.
func (t *Tenant) planningDemand() float64 {
	est := t.Meta.DemandEstimate()
	h := t.ForecastHorizonSec
	if h == 0 {
		h = DefaultForecastHorizonSec
	}
	if pred := t.Meta.PredictedDemand(h); pred > est {
		est = pred
	}
	if t.DemandCapQPS > 0 && est > t.DemandCapQPS {
		return t.DemandCapQPS
	}
	return est
}

// MultiController is the multi-tenant Resource Manager: it arbitrates one
// shared server pool across several pipelines. Each adaptation round runs a
// capacity-splitting outer loop around per-tenant MILP solves, as passes
// over one round value (see allocateLocked):
//
//  1. Desire — every tenant solves unconstrained (cap = the whole pool) for
//     its own demand; the plan's per-class server count is what the tenant
//     "wants". If the wants fit every class, everyone gets their
//     unconstrained plan — the common case, and what lets a traffic spike in
//     one pipeline steal servers another pipeline is not using.
//  2. Split — otherwise every tenant is granted min(want, floor) of each
//     class, where floor is its guaranteed share, and the leftover is split
//     across still-hungry tenants proportionally to unmet want
//     (largest-remainder rounding). Distinct tiers split tenant totals in
//     strict tier order instead and pack them contiguously along the classes.
//  3. Lend slack — idle servers of every class go to the cut tenants.
//  4. Keep-warm repair — a grant too small for one replica per task claims
//     servers up to its floors from tenants above theirs.
//  5. Capped re-solve — each cut tenant re-solves inside its grant,
//     degrading to accuracy scaling or saturation within its partition
//     rather than starving a neighbour.
//  6. Commit — plans and grants become the standing ones.
//
// The sum of grants never exceeds the pool, so the per-tenant engines'
// active workers always fit the shared cluster.
type MultiController struct {
	// GreedyReplaceBudget, when positive, lets up to that many MILP solves
	// per round be replaced by the planner's greedy first pass. Eligible are
	// tenants that need a fresh solve (plan-cache miss: a bucket boundary
	// crossed, a changed grant) but whose demand moved less than one cache
	// bucket since their standing plan — the solves most likely to return a
	// near-identical plan at full branch-and-bound price. Replacements are
	// deterministic (registration order) and greedy plans are provisional:
	// they are never cached, and demand drifting a fine bucket re-solves
	// them properly. Zero (the default) keeps every solve on the MILP,
	// bit-identical to the pre-greedy arbiter.
	GreedyReplaceBudget int

	// OnGrants, when non-nil, observes every joint allocation: the step
	// counter and the per-tenant server grants (summed across hardware
	// classes), in registration order. It is called with the controller
	// lock held and must not call back in.
	OnGrants func(step int, grants []int)

	// Capacity, when non-nil, reports the per-class count of servers
	// currently up in a fresh slice, aligned with the pool's classes and
	// each at most its class's count: the serving engine's fault record.
	// Every Step reads it first and re-plans when the counts changed since
	// the last read. Nil keeps the static class counts. It is called with
	// the controller lock held.
	Capacity func() []int

	mu      sync.Mutex
	pool    int
	classes []profiles.Class // the shared pool's hardware classes
	counts  []int            // resolved per-class server counts
	tenants []*Tenant
	steps   int

	// live, when non-nil, is the per-class count of servers up at the last
	// Capacity read, where it differs from the static counts: the capacity
	// the outer loop splits instead. capChanged forces the next round even
	// if no tenant's demand moved, so the arbiter reacts to a crash or
	// recovery within a round instead of waiting out the RM period.
	live       []int
	capChanged bool

	// tel, when non-nil, publishes planner diagnostics (round count, last
	// round's solve time, per-tenant solver effort and grants) to a
	// telemetry registry — the structured replacement for the LOKI_PROBE
	// print-based diagnostics in internal/experiments.
	tel *plannerTelemetry
}

// plannerTelemetry holds the arbiter's registry handles. Counters are fed
// deltas so the series stay monotone; AtSec carries the planner step counter
// (the arbiter has no engine clock of its own).
type plannerTelemetry struct {
	rounds   *telemetry.Counter
	roundSec *telemetry.Gauge
	// Per tenant, registration order: the solver effort of fresh solves
	// (truncated searches, branch-and-bound nodes, simplex pivots) and the
	// standing grant.
	truncated, nodes, pivots []tenantCounter
	grants                   []*telemetry.Gauge
}

// tenantCounter publishes a tenant's running total as a monotone counter.
type tenantCounter struct {
	c    *telemetry.Counter
	last int
}

func (tc *tenantCounter) publish(at float64, total int) {
	if d := total - tc.last; d > 0 {
		tc.c.Add(at, float64(d))
		tc.last = total
	}
}

// readCapacity folds a Capacity reading into live, and marks a re-plan when
// it differs from the last one. Full capacity drops the override, so
// fault-free operation stays on the static-count path. The caller holds the
// lock.
func (m *MultiController) readCapacity() {
	if m.Capacity == nil {
		return
	}
	live := m.Capacity()
	if slices.Equal(live, m.liveCountsLocked()) {
		return
	}
	m.live = live
	if slices.Equal(live, m.counts) {
		m.live = nil
	}
	m.capChanged = true
}

// SetTelemetry points the arbiter at a telemetry registry: every allocation
// round then publishes loki_planner_rounds_total, loki_planner_round_seconds
// (last round's wall-clock solve time), and per tenant the
// loki_planner_truncated_solves_total, loki_planner_bb_nodes_total and
// loki_planner_lp_pivots_total counters (how many fresh solves a resource
// limit cut short, and the branch-and-bound nodes and simplex pivots fresh
// solves cost) and the loki_planner_grant_servers gauge. A nil registry turns
// publication off. Call after every tenant has been registered.
func (m *MultiController) SetTelemetry(reg *telemetry.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if reg == nil {
		m.tel = nil
		return
	}
	pt := &plannerTelemetry{
		rounds:   reg.Counter("loki_planner_rounds_total", "Joint allocation rounds executed.", nil),
		roundSec: reg.Gauge("loki_planner_round_seconds", "Wall-clock duration of the last allocation round.", nil),
	}
	for _, t := range m.tenants {
		lbl := telemetry.L("tenant", t.Name)
		pt.truncated = append(pt.truncated, tenantCounter{last: t.truncated,
			c: reg.Counter("loki_planner_truncated_solves_total", "MILP solves cut short by a resource limit, per tenant.", lbl)})
		pt.nodes = append(pt.nodes, tenantCounter{last: t.bbNodes,
			c: reg.Counter("loki_planner_bb_nodes_total", "Branch-and-bound nodes explored by MILP solves, per tenant.", lbl)})
		pt.pivots = append(pt.pivots, tenantCounter{last: t.lpPivots,
			c: reg.Counter("loki_planner_lp_pivots_total", "Simplex pivots spent by MILP solves, per tenant.", lbl)})
		pt.grants = append(pt.grants,
			reg.Gauge("loki_planner_grant_servers", "Servers granted in the last allocation round, per tenant.", lbl))
	}
	m.tel = pt
}

// liveCountsLocked returns the per-class server counts the arbiter currently
// plans against: the static class sizes, reduced by any observed faults. The
// caller holds the lock and must not mutate the returned slice.
func (m *MultiController) liveCountsLocked() []int {
	if m.live != nil {
		return m.live
	}
	return m.counts
}

// bucketRatio is the plan-cache quantization for this controller's tenants.
// With a single tenant it is the fine legacy granularity (bit-compatible
// with the recorded single-pipeline goldens). With several tenants sharing
// the pool it widens to 1 + reallocateThreshold, making the cache
// consistent with the arbiter's own adaptation threshold: a demand the
// controller would not consider "moved" on an unforced step maps to the
// bucket of the plan already standing, so periodic forced re-allocations
// stop re-solving MILPs for demand wiggles the control policy has declared
// immaterial.
func (m *MultiController) bucketRatio() float64 {
	if len(m.tenants) == 1 {
		return legacyBucketRatio
	}
	return 1 + reallocateThreshold
}

// reallocateThreshold is the relative demand change (in any tenant) that
// triggers re-allocation before the periodic interval elapses.
const reallocateThreshold = 0.2

// NewMultiController validates the tenant set against the pool and wires
// the arbiter. It fails when the pool cannot hold one replica per task of
// every tenant simultaneously (the joint keep-warm minimum), when explicit
// MinShares oversubscribe the pool, when several tenants share the pool but
// one of their planners cannot solve under a server cap, or when the
// tenants describe the shared pool's hardware classes differently.
func NewMultiController(pool int, tenants []*Tenant) (*MultiController, error) {
	if pool <= 0 {
		return nil, fmt.Errorf("core: multi-tenant pool needs a positive server count, got %d", pool)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("core: no tenants registered")
	}
	// The hardware classes are a property of the one shared pool: every
	// tenant must register the identical class set.
	classes := tenants[0].Meta.Classes()
	for _, t := range tenants[1:] {
		if !profiles.SameClasses(classes, t.Meta.Classes()) {
			return nil, fmt.Errorf("core: tenant %q describes different hardware classes than tenant %q — the shared pool has one class set", t.Name, tenants[0].Name)
		}
	}
	counts := make([]int, len(classes))
	total := 0
	for i, cl := range classes {
		counts[i] = cl.Count
		total += cl.Count
	}
	if len(classes) == 1 && counts[0] == 0 {
		counts[0] = pool
		total = pool
	}
	if total != pool {
		return nil, fmt.Errorf("core: pool size %d disagrees with the hardware classes' total count %d", pool, total)
	}
	reserved := 0.0
	unreserved := 0
	for _, t := range tenants {
		if t.MinShare < 0 || t.MinShare > 1 {
			return nil, fmt.Errorf("core: tenant %q MinShare %.3f outside [0,1]", t.Name, t.MinShare)
		}
		if t.MinShare == 0 {
			unreserved++
		}
		reserved += t.MinShare
		if len(tenants) > 1 {
			if _, ok := t.Alloc.(CappedPlanner); !ok {
				return nil, fmt.Errorf("core: tenant %q planner cannot solve under a server cap; multi-tenant arbitration requires a CappedPlanner", t.Name)
			}
		}
	}
	if reserved > 1+1e-9 {
		return nil, fmt.Errorf("core: MinShares sum to %.3f > 1", reserved)
	}
	implicit := 0.0
	if unreserved > 0 {
		implicit = (1 - reserved) / float64(unreserved)
	}
	minTotal := 0
	floorTotal := make([]int, len(classes))
	order := largestFirst(counts)
	for _, t := range tenants {
		share := t.MinShare
		if share == 0 {
			share = implicit
		}
		warm := len(t.Meta.Graph().Tasks)
		t.floorByClass = shareFloor(share, counts, order, warm)
		if sumInts(t.floorByClass) < warm {
			return nil, fmt.Errorf("core: tenant %q cannot keep %d tasks warm within the pool", t.Name, warm)
		}
		minTotal += warm
		for c := range classes {
			floorTotal[c] += t.floorByClass[c]
		}
	}
	if minTotal > pool {
		return nil, fmt.Errorf("core: pool of %d servers cannot keep %d tenant tasks warm (one replica each)", pool, minTotal)
	}
	// Floors are raised to each tenant's keep-warm task count, which can
	// push their sum past a class even when the raw shares fit; splitPool
	// grants up to every floor under contention, so an oversubscribed floor
	// set would break the Σ grants ≤ count invariant.
	for c := range classes {
		if floorTotal[c] > counts[c] {
			return nil, fmt.Errorf("core: contention floors need %d servers of class %q (shares plus keep-warm minimums) but it holds %d", floorTotal[c], classes[c].Name, counts[c])
		}
	}
	return &MultiController{pool: pool, classes: classes, counts: counts, tenants: tenants}, nil
}

// shareFloor resolves a tenant's contention floor per class. WithShare
// floors apply per class: the guarantee is a slice of every class, so a
// guaranteed tenant keeps access to fast hardware under contention, not just
// to some servers somewhere. The keep-warm raise then lifts the floor total
// to one replica per task where capacity remains, visiting the classes in
// order (largest first): small-share tenants' keep-warm replicas land on the
// roomy classes instead of piling onto a scarce fast class and spuriously
// oversubscribing its floors. The total stays below warm only when the
// classes cannot hold it.
func shareFloor(share float64, counts, order []int, warm int) []int {
	floor := make([]int, len(counts))
	for c, n := range counts {
		floor[c] = int(math.Floor(share * float64(n)))
	}
	for _, c := range order {
		floor[c] += max(0, min(counts[c]-floor[c], warm-sumInts(floor)))
	}
	return floor
}

// Pool returns the shared pool size.
func (m *MultiController) Pool() int { return m.pool }

// Tenants returns the number of registered tenants.
func (m *MultiController) Tenants() int { return len(m.tenants) }

// Step runs one joint Resource Manager invocation across all tenants: read
// the pool's live capacity, estimate each tenant's demand, rerun the
// capacity-splitting outer loop if forced, the capacity changed or any
// tenant's demand moved past the threshold, and publish every
// tenant's plan and routing tables. The route builds fan out across tenants
// like the solves; the plans reach the engines afterwards, in registration
// order (publishAll).
func (m *MultiController) Step(force bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps++
	m.readCapacity()

	// Per-tenant planning demand: the smoothed estimate, or the forecaster's
	// envelope when it predicts higher — so one tenant's forecasted spike
	// raises its want in the desire pass and claims idle neighbour servers
	// before the spike arrives.
	demands := make([]float64, len(m.tenants))
	for i, t := range m.tenants {
		demands[i] = t.planningDemand()
	}

	if !force {
		// A capacity change (crash, outage, recovery) counts as movement:
		// the arbiter re-plans against the live pool within a round.
		moved := m.capChanged
		for i, t := range m.tenants {
			if moved {
				break
			}
			if t.plan == nil || t.moved(demands[i], reallocateThreshold) {
				moved = true
			}
		}
		if !moved {
			return nil
		}
	}

	if err := m.allocateLocked(demands); err != nil {
		return err
	}
	m.capChanged = false
	for i, t := range m.tenants {
		t.planDmd = demands[i]
	}
	m.publishAll(demands)
	return nil
}

// allocateLocked runs one round as passes over a fresh round value, in this
// order: desire, then — only when some class is contended — split, lend
// slack, keep-warm repair and capped re-solve, then commit. Both solve passes
// fan out across tenants (each tenant's MILP is independent of the others')
// while the grant passes between them run serially on the gathered wants,
// so a round's outcome does not depend on the fan-out.
func (m *MultiController) allocateLocked(demands []float64) error {
	var roundStart time.Time
	if m.tel != nil {
		roundStart = time.Now()
	}
	r := m.newRound(demands)
	if err := r.desire(); err != nil {
		return err
	}
	if r.contended() {
		r.split()
		r.lendSlack()
		r.ensureWarm()
		if err := r.resolve(); err != nil {
			return err
		}
	}
	r.commit(roundStart)
	return nil
}

// round is one allocation round: the inputs every pass reads and the
// per-tenant wants, grants and plans the passes write in turn. The grant
// passes (split, lendSlack, ensureWarm) read nothing but its slices.
type round struct {
	m       *MultiController
	demands []float64 // per tenant: planning demand
	ratio   float64   // plan-cache bucket ratio
	counts  []int     // live servers per class
	// caps bounds the desire pass. With every server up it is nil: the
	// tenants solve at the planner's full cluster size (= the whole pool),
	// bit-identical to the fault-free system. While a fault holds servers
	// down it is the live counts: a desire solved against the healthy pool
	// shape would keep wanting the dead class (leaving the surviving classes
	// formally uncontended and the tier ordering idle), where the same
	// demand re-aimed at the survivors makes the real contention — and the
	// tier-ordered split of it — visible.
	caps   []int
	floors [][]int // per tenant: contention floor per class
	warms  []int   // per tenant: task count, the keep-warm minimum
	tiers  []int   // per tenant: degradation tier

	// dirty marks the tenants whose desire plan is solved again, greedy the
	// ones whose solves the greedy pass replaces, constrained the ones
	// granted less than they want in some class.
	dirty, greedy, constrained []bool
	wants, grants              [][]int // per tenant: servers per class
	plans                      []*Plan
	// packed is set when distinct tiers packed the grants contiguously: a
	// capped re-solve then also tries its grant without the smallest class.
	packed bool
}

// newRound gathers a round's inputs, marks the dirty tenants and picks the
// greedy replacements.
func (m *MultiController) newRound(demands []float64) *round {
	n := len(m.tenants)
	flags := make([]bool, 3*n)
	r := &round{m: m, demands: demands, ratio: m.bucketRatio(), counts: m.liveCountsLocked(),
		floors: make([][]int, n), warms: make([]int, n), tiers: make([]int, n),
		dirty: flags[:n], greedy: flags[n : 2*n], constrained: flags[2*n:], plans: make([]*Plan, n)}
	if m.live != nil {
		r.caps = r.counts
	}
	// Dirty tracking: a tenant re-solves only when something that feeds its
	// plan moved — the plan-cache key (quantized demand, desire caps), the
	// reusability of its last desire plan, or a disabled cache. Clean
	// tenants reuse last round's plans verbatim, which is bit-identical to
	// the cache hit the solve would have returned.
	for i, t := range m.tenants {
		r.floors[i], r.warms[i], r.tiers[i] = t.floorByClass, len(t.Meta.Graph().Tasks), t.Tier
		key, fine := r.desireKey(i)
		r.dirty[i] = t.CacheDisabled || key != t.desireKey || !t.desire.reusable(fine)
	}
	// Greedy replacements, picked before the fan-out so the budget is spent
	// in registration order: dirty tenants whose demand moved less than one
	// cache bucket get the greedy pass instead of a full MILP solve.
	budget := m.GreedyReplaceBudget
	for i, t := range m.tenants {
		if budget <= 0 {
			break
		}
		if !r.dirty[i] || t.plan == nil || t.moved(demands[i], r.ratio-1) {
			continue
		}
		if _, ok := t.Alloc.(GreedyPlanner); ok {
			r.greedy[i] = true
			budget--
		}
	}
	return r
}

// desireKey is tenant i's desire-pass plan-cache key and fine legacy bucket.
func (r *round) desireKey(i int) (tenantPlanKey, int) {
	return planKey(demandBucket(r.demands[i], r.ratio), r.caps), demandBucket(r.demands[i], legacyBucketRatio)
}

// desire solves every dirty tenant at the desire caps, reuses the clean
// tenants' last desire plans, and records each plan's servers per class as
// the tenant's want. Until a split says otherwise the grants are the wants.
func (r *round) desire() error {
	err := r.m.forEachTenant(func(i int, t *Tenant) error {
		if !r.dirty[i] {
			r.plans[i] = t.desire.plan
			return nil
		}
		plan, err := r.solve(i, r.caps)
		if err != nil {
			return fmt.Errorf("core: tenant %q allocation: %w", t.Name, err)
		}
		r.plans[i] = plan
		// An idle plan is never recorded, so the tenant stays dirty until
		// the pool recovers.
		if !r.idle(i, r.caps) {
			key, fine := r.desireKey(i)
			t.desire, t.desireKey = cachedPlan{plan: plan, fineBucket: fine}, key
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.wants = rows(len(r.plans), len(r.counts))
	for i, plan := range r.plans {
		classWants(plan, r.wants[i])
	}
	r.grants = r.wants
	return nil
}

// contended reports whether the wants oversubscribe some class.
func (r *round) contended() bool {
	for c, n := range r.counts {
		total := 0
		for _, w := range r.wants {
			total += w[c]
		}
		if total > n {
			return true
		}
	}
	return false
}

// split grants every class across tenants: min(want, floor) plus a
// largest-remainder share of the class's leftover (splitPool). When tenants
// carry distinct tiers the split instead runs on tenant totals with strict
// tier precedence and packs classes contiguously (packTiered), so a squeezed
// tier is left with one plannable block instead of fragments of every class.
// A tenant granted less than it wants in some class becomes constrained.
func (r *round) split() {
	r.packed = slices.ContainsFunc(r.tiers, func(t int) bool { return t != r.tiers[0] })
	if r.packed {
		r.grants = packTiered(r.counts, r.wants, r.floors, r.tiers)
	} else {
		n := len(r.wants)
		r.grants = rows(n, len(r.counts))
		wantsC, floorsC := make([]int, n), make([]int, n)
		for c, count := range r.counts {
			for i := range r.wants {
				wantsC[i], floorsC[i] = r.wants[i][c], r.floors[i][c]
			}
			for i, g := range splitPool(count, wantsC, floorsC) {
				r.grants[i][c] = g
			}
		}
	}
	for i, g := range r.grants {
		for c := range g {
			if g[c] < r.wants[i][c] {
				r.constrained[i] = true
			}
		}
	}
}

// lendSlack distributes every class's unallocated servers across the
// constrained tenants (largest remainder of an equal split, ties broken by
// registration order). Idle hardware is never stranded while some tenant is
// being cut — the vector analogue of "an idle tenant's guarantee is lent to
// whoever wants it" — so a pipeline cut on fast hardware may substitute slow
// hardware in its capped re-solve.
func (r *round) lendSlack() {
	nHungry := 0
	for _, c := range r.constrained {
		if c {
			nHungry++
		}
	}
	if nHungry == 0 {
		return
	}
	for c := range r.counts {
		free := r.counts[c]
		for _, g := range r.grants {
			free -= g[c]
		}
		if free <= 0 {
			continue
		}
		each, rem := free/nHungry, free%nHungry
		for i, g := range r.grants {
			if !r.constrained[i] {
				continue
			}
			g[c] += each
			if rem > 0 {
				g[c]++
				rem--
			}
		}
	}
}

// ensureWarm guarantees every tenant's grant vector can hold one replica per
// task, which the capped solve requires. A per-class split can land below
// that even though the floors cover it: min(want, floor) takes nothing from
// classes the tenant did not ask for, so a tenant that concentrated its want
// on a contended class may be cut there while its floor slice of the other
// classes sits granted to neighbours. The repair claims capacity — free
// servers first, then servers granted to other tenants *above their own
// floors* (largest excess first, lowest index on ties) — only in classes
// where the tenant is still below its floor, and never pushes a donor below
// its floors or its own keep-warm minimum. Shrunk donors are marked
// constrained so they re-solve inside their reduced vectors. Floors that fit
// the pool do not always make the repair succeed: the spare servers can sit
// in classes where the tenant already holds its floor, while the tenants in
// the classes it may claim hold no more than their floors or task counts.
// Such a tenant keeps a grant below its task count and is served an idle
// plan for the round.
func (r *round) ensureWarm() {
	for i, gi := range r.grants {
		need := r.warms[i] - sumInts(gi)
		if need <= 0 {
			continue
		}
		r.constrained[i] = true
		for c := 0; c < len(r.counts) && need > 0; c++ {
			claim := min(r.floors[i][c]-gi[c], need)
			if claim <= 0 {
				continue
			}
			free := r.counts[c]
			for _, g := range r.grants {
				free -= g[c]
			}
			if free = min(free, claim); free > 0 {
				gi[c] += free
				need -= free
				claim -= free
			}
			for claim > 0 {
				donor, excess := -1, 0
				for j, g := range r.grants {
					if j == i {
						continue
					}
					if e := min(g[c]-r.floors[j][c], sumInts(g)-r.warms[j]); e > excess {
						donor, excess = j, e
					}
				}
				if donor < 0 {
					break
				}
				d := min(excess, claim)
				r.grants[donor][c] -= d
				gi[c] += d
				need -= d
				claim -= d
				if r.grants[donor][c] < r.wants[donor][c] {
					r.constrained[donor] = true
				}
			}
		}
	}
}

// resolve re-solves every constrained tenant inside its grant.
func (r *round) resolve() error {
	return r.m.forEachTenant(func(i int, t *Tenant) error {
		if !r.constrained[i] {
			return nil
		}
		// Clean tenant, same grant as last round, standing plan already
		// solved inside it: reuse verbatim. (The cache would return the
		// identical plan; this skips the lookups and the dropFragment
		// retry.)
		if !r.dirty[i] && t.cappedPlan && t.plan != nil && slices.Equal(r.grants[i], t.grant) {
			r.plans[i] = t.plan
			return nil
		}
		plan, err := r.solve(i, r.grants[i])
		if err != nil {
			return fmt.Errorf("core: tenant %q capped allocation (%v servers): %w", t.Name, r.grants[i], err)
		}
		r.plans[i] = plan
		return nil
	})
}

// solve is the one solve path of both passes: it plans tenant i inside caps
// (nil: the planner's whole cluster) — idle when caps cannot keep the
// tenant's tasks warm, by the greedy pass when the round picked the tenant
// for one and it fits, otherwise by the planner through the plan cache,
// retried without the smallest class of a packed grant.
func (r *round) solve(i int, caps []int) (*Plan, error) {
	t := r.m.tenants[i]
	if r.idle(i, caps) {
		return idlePlan(r.demands[i]), nil
	}
	if r.greedy[i] {
		if plan, ok := t.Alloc.(GreedyPlanner).GreedyAllocate(r.demands[i], caps); ok {
			t.greedyReplaced++
			return plan, nil
		}
	}
	plan, err := t.solve(r.demands[i], caps, r.ratio)
	if err != nil || !r.packed {
		return plan, err
	}
	return t.dropFragment(plan, r.demands[i], caps, r.ratio), nil
}

// idle reports whether caps hold fewer servers than tenant i has tasks. An
// outage can shrink the pool below the joint keep-warm minimum, and then no
// feasible plan fits: the tenant serves an idle plan rather than a stale
// one. A stale plan keeps routing onto capacity that is dead or granted to
// higher tiers, so its queries drop at dark queues, while an idle plan
// drives the tenant's admission rate to zero and its traffic sheds
// gracefully (429 + Retry-After) until recovery re-plans it.
func (r *round) idle(i int, caps []int) bool {
	return caps != nil && sumInts(caps) < r.warms[i]
}

// commit makes the round's plans and grants the standing ones and reports
// them to OnGrants and the telemetry registry.
func (r *round) commit(start time.Time) {
	m := r.m
	for i, t := range m.tenants {
		t.plan, t.grant, t.cappedPlan = r.plans[i], r.grants[i], r.constrained[i]
	}
	if m.OnGrants != nil {
		totals := make([]int, len(m.tenants))
		for i, g := range r.grants {
			totals[i] = sumInts(g)
		}
		m.OnGrants(m.steps, totals)
	}
	if m.tel != nil {
		// AtSec carries the planner step counter; the round-duration gauge is
		// the only wall-clock (nondeterministic) value published here.
		at := float64(m.steps)
		m.tel.rounds.Add(at, 1)
		m.tel.roundSec.Set(at, time.Since(start).Seconds())
		for i, t := range m.tenants {
			m.tel.truncated[i].publish(at, t.truncated)
			m.tel.nodes[i].publish(at, t.bbNodes)
			m.tel.pivots[i].publish(at, t.lpPivots)
			m.tel.grants[i].Set(at, float64(sumInts(r.grants[i])))
		}
	}
}

// classWants writes a plan's per-class server demand into out, sized to the
// pool's class set, falling back to summing assignments for planners that
// do not fill ServersByClass (hand-built or baseline plans on the
// homogeneous path).
func classWants(plan *Plan, out []int) {
	if len(plan.ServersByClass) == len(out) {
		copy(out, plan.ServersByClass)
		return
	}
	for _, a := range plan.Assignments {
		c := a.Class
		if c < 0 || c >= len(out) {
			c = 0
		}
		out[c] += a.Replicas
	}
}

// rows returns n zeroed rows of width nc carved from one allocation.
func rows(n, nc int) [][]int {
	slab := make([]int, n*nc)
	out := make([][]int, n)
	for i := range out {
		out[i] = slab[i*nc : (i+1)*nc : (i+1)*nc]
	}
	return out
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// forEachTenant runs fn once per tenant. Unless the host has a single
// execution slot (where fanning out only adds scheduling noise to
// wall-clock-budgeted solves) or there is one tenant, calls run concurrently
// on bounded goroutines — one in flight per tenant, at most GOMAXPROCS at
// once. The grant split is deterministic either way: results are assembled
// in registration order. fn receives a distinct tenant per call, so
// per-tenant state (plan cache, allocator) needs no extra locking. The first
// error in registration order wins.
func (m *MultiController) forEachTenant(fn func(i int, t *Tenant) error) error {
	limit := runtime.GOMAXPROCS(0)
	if limit <= 1 || len(m.tenants) <= 1 {
		for i, t := range m.tenants {
			if err := fn(i, t); err != nil {
				return err
			}
		}
		return nil
	}
	if limit > len(m.tenants) {
		limit = len(m.tenants)
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, len(m.tenants))
	var wg sync.WaitGroup
	for i, t := range m.tenants {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t *Tenant) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i, t)
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitPool splits one capacity pool (the whole cluster, or one hardware
// class of it): each tenant gets min(want, floor), then the leftover is
// split across still-hungry tenants proportionally to unmet want. When the
// pool cannot cover even the min(want, floor) grants, it is apportioned
// across them instead. Both splits use apportion's largest-remainder
// rounding.
func splitPool(pool int, wants, floors []int) []int {
	mins := make([]int, len(wants))
	unmet := make([]int, len(wants))
	fit := 0
	for i, w := range wants {
		mins[i] = min(w, floors[i])
		unmet[i] = w - mins[i]
		fit += mins[i]
	}
	if fit >= pool {
		return apportion(pool, mins)
	}
	for i, g := range apportion(pool-fit, unmet) {
		mins[i] += g
	}
	return mins
}

// splitPoolTiered is splitPool with tier-ordered degradation: tiers take
// strict precedence, so a higher tier's full want is served before any
// lower tier sees a server, and under a shortage the damage concentrates on
// the lowest tiers — they shed at the front door while the high tiers keep
// their SLOs. Peers within one tier share what the higher tiers left by
// splitPool; with a single tier it is splitPool.
func splitPoolTiered(pool int, wants, floors, tiers []int) []int {
	grants := make([]int, len(wants))
	wantsL, floorsL := make([]int, len(wants)), make([]int, len(wants))
	for _, lv := range tierLevels(tiers) {
		for i := range wants {
			wantsL[i], floorsL[i] = 0, 0
			if tiers[i] == lv {
				wantsL[i], floorsL[i] = wants[i], floors[i]
			}
		}
		for i, g := range splitPool(pool, wantsL, floorsL) {
			grants[i] += g
			pool -= g
		}
	}
	return grants
}

// tierLevels returns the distinct tiers, highest first.
func tierLevels(tiers []int) []int {
	levels := slices.Clone(tiers)
	slices.Sort(levels)
	slices.Reverse(levels)
	return slices.Compact(levels)
}

// largestFirst returns the class indices ordered by server count, largest
// first (ties by index).
func largestFirst(counts []int) []int {
	order := make([]int, len(counts))
	for c := range order {
		order[c] = c
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(counts[b], counts[a]) })
	return order
}

// dropFragment retries an under-serving capped solve without the grant's
// smallest class. The branch-and-bound planner truncates on mixed caps like
// [1,6] — a sliver of one class next to a block of another — and the
// truncated search can land on a plan worth half the rate of simply planning
// the block alone ([0,6]). When the solve left demand unserved and the grant
// spans several classes, one extra (cached) solve with the smallest class
// zeroed checks that; the better plan wins, and the orphaned sliver stays
// granted but idle.
func (t *Tenant) dropFragment(plan *Plan, demand float64, caps []int, ratio float64) *Plan {
	if plan.ServedFraction >= 0.999 {
		return plan
	}
	small, nonzero := -1, 0
	for c, n := range caps {
		if n <= 0 {
			continue
		}
		nonzero++
		if small < 0 || n < caps[small] {
			small = c
		}
	}
	if nonzero < 2 {
		return plan
	}
	alt := slices.Clone(caps)
	alt[small] = 0
	altPlan, err := t.solve(demand, alt, ratio)
	if err != nil || altPlan.ServedFraction <= plan.ServedFraction {
		return plan
	}
	return altPlan
}

// packTiered grants servers across tenants AND classes when tiers are
// distinct. Per-class tiered splits can strand a low tier with small slivers
// of several classes, and the planner cannot compose a useful plan out of
// fragments (a grant of 5+2 across two classes plans barely half the rate of
// 7 in one class). So the strict split runs on tenant totals — a higher
// tier's whole demand is served before a lower tier sees a server — and the
// totals are then laid out contiguously along the class list, largest live
// class first: the top tier fills from the biggest (most plannable) class,
// each following tenant starts where the previous one stopped, and at most
// one class boundary lands inside any tenant's grant.
func packTiered(counts []int, wants [][]int, floors [][]int, tiers []int) [][]int {
	totalWants := make([]int, len(wants))
	totalFloors := make([]int, len(wants))
	for i := range wants {
		totalWants[i] = sumInts(wants[i])
		totalFloors[i] = sumInts(floors[i])
	}
	totals := splitPoolTiered(sumInts(counts), totalWants, totalFloors, tiers)

	order := largestFirst(counts)
	remaining := slices.Clone(counts)
	grants := rows(len(wants), len(counts))
	for _, lv := range tierLevels(tiers) {
		for i := range wants {
			if tiers[i] != lv {
				continue
			}
			need := totals[i]
			for _, c := range order {
				if need <= 0 {
					break
				}
				take := min(need, remaining[c])
				grants[i][c] = take
				remaining[c] -= take
				need -= take
			}
		}
	}
	return grants
}

// apportion distributes up to total units across recipients proportionally
// to their weights (never exceeding a recipient's weight), with
// largest-remainder rounding: ties go to the lower index, for determinism.
func apportion(total int, weights []int) []int {
	out := make([]int, len(weights))
	sumW := sumInts(weights)
	if sumW == 0 || total <= 0 {
		return out
	}
	if total >= sumW {
		copy(out, weights)
		return out
	}
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, 0, len(weights))
	used := 0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		quota := float64(total) * float64(w) / float64(sumW)
		whole := int(math.Floor(quota))
		if whole > w {
			whole = w
		}
		out[i] = whole
		used += whole
		fracs = append(fracs, frac{idx: i, rem: quota - float64(whole)})
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].rem > fracs[b].rem })
	for _, f := range fracs {
		if used >= total {
			break
		}
		if out[f.idx] < weights[f.idx] {
			out[f.idx]++
			used++
		}
	}
	return out
}

// publishAll rebuilds the routing tables of every tenant holding a plan, at
// demands[i], fanned out like the solves (a route build touches only its
// tenant's state), then pushes plan and routes to the engines in
// registration order, after the barrier: the engines see the same ApplyPlan
// sequence as from a serial round. Callers hold the controller lock.
func (m *MultiController) publishAll(demands []float64) {
	_ = m.forEachTenant(func(i int, t *Tenant) error {
		if t.plan != nil {
			specs := ExpandPlan(t.plan)
			t.routes = MostAccurateFirst(t.Meta.Graph(), specs, demands[i]*(1+t.RouteHeadroom), t.Meta.MultFactor)
		}
		return nil
	})
	for _, t := range m.tenants {
		if t.plan != nil && t.Publish != nil {
			t.Publish(t.plan, t.routes)
		}
	}
}

// Rebalance reruns MostAccurateFirst for every tenant against its standing
// plan with a fresh planning demand (the Load Balancer's
// between-allocations refresh).
func (m *MultiController) Rebalance() {
	m.mu.Lock()
	defer m.mu.Unlock()
	demands := make([]float64, len(m.tenants))
	for i, t := range m.tenants {
		if t.plan != nil {
			demands[i] = t.planningDemand()
		}
	}
	m.publishAll(demands)
}

// PlanOf returns tenant i's standing plan (nil before the first Step).
func (m *MultiController) PlanOf(i int) *Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[i].plan
}

// RoutesOf returns tenant i's standing routing tables (nil before the first
// Step).
func (m *MultiController) RoutesOf(i int) *Routes {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[i].routes
}

// Grants returns the servers currently granted to each tenant (summed over
// hardware classes), in registration order. The sum never exceeds the pool.
func (m *MultiController) Grants() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = sumInts(t.grant)
	}
	return out
}

// ClassGrants returns each tenant's standing grant vector (servers per
// hardware class, in class order), in registration order. Per class, the
// column sums never exceed that class's server count.
func (m *MultiController) ClassGrants() [][]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]int, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = append([]int(nil), t.grant...)
	}
	return out
}

// Classes returns the shared pool's hardware classes with resolved counts.
func (m *MultiController) Classes() []profiles.Class {
	out := append([]profiles.Class(nil), m.classes...)
	for i := range out {
		out[i].Count = m.counts[i]
	}
	return out
}

// Floors returns each tenant's resolved contention guarantee in servers
// (summed over hardware classes).
func (m *MultiController) Floors() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, len(m.tenants))
	for i, t := range m.tenants {
		out[i] = sumInts(t.floorByClass)
	}
	return out
}

// Allocates returns the total number of MILP invocations (plan-cache
// misses) across all tenants.
func (m *MultiController) Allocates() int {
	return m.total(func(t *Tenant) int { return t.allocates })
}

// TruncatedSolves returns the total number of fresh MILP solves whose branch
// & bound search was cut short by a resource limit, across all tenants — the
// same signal the loki_planner_truncated_solves_total telemetry counter
// publishes per tenant.
func (m *MultiController) TruncatedSolves() int {
	return m.total(func(t *Tenant) int { return t.truncated })
}

// GreedyReplaced returns the total number of MILP solves replaced by the
// greedy first pass under the GreedyReplaceBudget, across all tenants.
func (m *MultiController) GreedyReplaced() int {
	return m.total(func(t *Tenant) int { return t.greedyReplaced })
}

// total sums a per-tenant counter across all tenants.
func (m *MultiController) total(count func(*Tenant) int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.tenants {
		n += count(t)
	}
	return n
}

// AllocatesOf returns tenant i's MILP invocations.
func (m *MultiController) AllocatesOf(i int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[i].allocates
}
