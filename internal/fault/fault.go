// Package fault is the deterministic fault injector behind the chaos
// experiments and the -fault CLI flags. An Event is one timed fault — a
// single-server crash, a whole-class outage or a slow-node straggler — with
// an optional timed recovery; the serving engine schedules a list of them on
// its own timeline, on the simulated and the wall-clock kind alike. The
// package itself holds no clock and no randomness, so the same seed and the
// same events reproduce the same run bit for bit.
//
// Target selection is deterministic too: within a class, the highest-index
// healthy workers fail first and recover in the same order, so every
// tenant's view of the pool (each tenant models the same physical machines)
// agrees on which servers are down.
package fault

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the failure modes the injector can produce.
type Kind int

const (
	// Crash takes N servers of a class down; their queued and in-flight
	// batches are lost.
	Crash Kind = iota
	// Outage takes a whole hardware class down (the spot pool vanishes).
	Outage
	// Straggler multiplies the speed of N servers of a class by Factor
	// (0.25 = four times slower) without dropping their work.
	Straggler
)

// String names the kind the way the spec grammar spells it.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Outage:
		return "outage"
	case Straggler:
		return "straggle"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault. At is measured from the start of serving
// (the engines anchor it to the first FeedAll on the simulator and to Start
// on the wall-clock kind). Class selects the hardware class by name; empty
// means the pool's first class. N bounds how many servers are hit (ignored
// by Outage, which always takes the whole class). Factor is the straggler
// speed multiplier. RecoverAfter, when positive, schedules the inverse event
// that long after the fault fires; zero means the fault is permanent.
type Event struct {
	At           time.Duration
	Kind         Kind
	Class        string
	N            int
	Factor       float64
	RecoverAfter time.Duration
}

// String renders the event in the spec grammar accepted by Parse.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%v", e.Kind, e.At)
	if e.Class != "" {
		fmt.Fprintf(&b, ":class=%s", e.Class)
	}
	if e.N > 0 && e.Kind != Outage {
		fmt.Fprintf(&b, ":n=%d", e.N)
	}
	if e.Kind == Straggler {
		fmt.Fprintf(&b, ":factor=%g", e.Factor)
	}
	if e.RecoverAfter > 0 {
		fmt.Fprintf(&b, ":recover=%v", e.RecoverAfter)
	}
	return b.String()
}

// Validate checks the event for well-formedness; class names are resolved
// by the engine, which knows the pool.
func (e Event) Validate() error {
	if math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
		return fmt.Errorf("fault: event %q: factor must be finite", e.String())
	}
	if e.At < 0 {
		return fmt.Errorf("fault: event %q: negative time", e.String())
	}
	switch e.Kind {
	case Crash, Straggler:
		if e.N <= 0 {
			return fmt.Errorf("fault: event %q: n must be positive", e.String())
		}
	case Outage:
		// whole class; N ignored
	default:
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	if e.Kind == Straggler && (e.Factor <= 0 || e.Factor >= 1) {
		return fmt.Errorf("fault: event %q: factor must be in (0,1)", e.String())
	}
	if e.RecoverAfter < 0 {
		return fmt.Errorf("fault: event %q: negative recover", e.String())
	}
	return nil
}

// Parse reads the CLI spec grammar: comma-separated events of the form
//
//	kind@time[:key=value]...
//
// where kind is crash, outage, or straggle; time is a Go duration ("30s") or
// plain seconds ("30"); and the keys are class=<name>, n=<count>,
// factor=<mult>, and recover=<duration>. Example:
//
//	crash@30s:class=a100:n=2:recover=20s,outage@60s:class=spot:recover=30s
//
// An empty spec returns (nil, nil).
func Parse(spec string) ([]Event, error) {
	var out []Event
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseEvent(part string) (Event, error) {
	fields := strings.Split(part, ":")
	head := fields[0]
	kindStr, atStr, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("fault: %q: want kind@time", part)
	}
	var ev Event
	switch strings.ToLower(kindStr) {
	case "crash":
		ev.Kind = Crash
		ev.N = 1
	case "outage":
		ev.Kind = Outage
	case "straggle", "straggler":
		ev.Kind = Straggler
		ev.N = 1
		ev.Factor = 0.5
	default:
		return Event{}, fmt.Errorf("fault: %q: unknown kind %q", part, kindStr)
	}
	at, err := parseDuration(atStr)
	if err != nil {
		return Event{}, fmt.Errorf("fault: %q: bad time %q: %v", part, atStr, err)
	}
	ev.At = at
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Event{}, fmt.Errorf("fault: %q: want key=value, got %q", part, f)
		}
		switch strings.ToLower(key) {
		case "class":
			ev.Class = val
		case "n":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Event{}, fmt.Errorf("fault: %q: bad n %q", part, val)
			}
			ev.N = n
		case "factor":
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Event{}, fmt.Errorf("fault: %q: bad factor %q", part, val)
			}
			ev.Factor = x
		case "recover":
			d, err := parseDuration(val)
			if err != nil {
				return Event{}, fmt.Errorf("fault: %q: bad recover %q: %v", part, val, err)
			}
			ev.RecoverAfter = d
		default:
			return Event{}, fmt.Errorf("fault: %q: unknown key %q", part, key)
		}
	}
	return ev, ev.Validate()
}

// parseDuration reads a Go duration ("1m30s", "500ms", as Event.String
// renders them) or else plain seconds, with or without an "s" suffix and in
// any form strconv.ParseFloat accepts ("30", "1e-07s"). Seconds beyond
// time.Duration's range (about 292 years) are an error.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil {
		return d, nil
	}
	x, ferr := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	if ferr != nil {
		return 0, err
	}
	ns := x * float64(time.Second)
	if !(math.Abs(ns) < math.MaxInt64) { // also NaN and ±Inf
		return 0, errors.New("out of range")
	}
	return time.Duration(ns), nil
}
