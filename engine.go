package loki

import "loki/internal/engine"

// EngineKind selects the serving backend behind a System. Both backends are
// one discrete-event serving engine with the identical Resource Manager,
// Load Balancer, routing tables, and drop policies; they differ only in how
// time passes.
type EngineKind int

// The values mirror internal/engine.Kind one-to-one.
const (
	// Simulated is the discrete-event simulator: virtual time, bit-exact
	// determinism for a fixed seed, and runs as fast as events can be
	// processed. The default.
	Simulated EngineKind = iota
	// Wallclock is the simulator paced by the wall clock: every event fires
	// when (scaled) wall time reaches it, so a batch occupies its worker for
	// the profiled latency in real time, and requests may be submitted
	// concurrently — the paper's prototype role in the §6.2
	// simulator-validation experiment. Latencies are engine time.
	Wallclock
)

// String names the engine kind.
func (k EngineKind) String() string {
	switch k {
	case Simulated:
		return "simulated"
	case Wallclock:
		return "wallclock"
	default:
		return "unknown"
	}
}

// WithEngine selects the serving backend (default Simulated).
func WithEngine(k EngineKind) Option { return func(c *config) { c.pool.Backend = engine.Kind(k) } }

// WithTimeScale compresses the Wallclock engine's real time: wall-clock
// duration = profiled duration × scale. 1.0 runs in real time; 0.1 runs a
// ten-minute trace in one minute. It must be finite and not negative; zero
// means 1.0. Ignored by the Simulated engine.
func WithTimeScale(scale float64) Option { return func(c *config) { c.pool.TimeScale = scale } }
