// Package fault is the deterministic fault injector behind the chaos
// experiments and the -fault CLI flags. A Schedule is a list of timed events
// — single-server crashes, whole-class outages, slow-node stragglers, and
// their timed recoveries — that the serving engine consumes, on the
// simulated and the wall-clock kind alike. The package itself holds
// no clock and no randomness: Compile turns a Schedule into (time, action)
// pairs and the engine schedules them on its own timeline, so the same seed
// and the same schedule reproduce the same run bit for bit.
//
// Target selection is deterministic too: within a class, the highest-index
// healthy workers fail first and recover in the same order, so every
// tenant's view of the pool (each tenant models the same physical machines)
// agrees on which servers are down.
package fault

import (
	"fmt"
	"math"
	"sort"
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

// Event is one scheduled fault. At is seconds after serving begins (the
// engines anchor it to the first FeedAll). Class selects the hardware class
// by name; empty means the pool's first class. N bounds how many servers are
// hit (ignored by Outage, which always takes the whole class). Factor is the
// straggler speed multiplier. RecoverAfter, when positive, schedules the
// inverse event that many seconds after the fault fires; zero means the
// fault is permanent.
type Event struct {
	At           float64
	Kind         Kind
	Class        string
	N            int
	Factor       float64
	RecoverAfter float64
}

// String renders the event in the spec grammar accepted by Parse.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%gs", e.Kind, e.At)
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
		fmt.Fprintf(&b, ":recover=%gs", e.RecoverAfter)
	}
	return b.String()
}

func (e Event) validate() error {
	for _, x := range []float64{e.At, e.Factor, e.RecoverAfter} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("fault: event %q: times and factor must be finite", e.String())
		}
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

// Schedule is an ordered set of fault events. The zero value (or nil) means
// no faults, and every engine hook is bypassed so fault-free runs stay
// bit-identical with the pre-fault code paths.
type Schedule struct {
	Events []Event
}

// validate checks every event for well-formedness.
func (s *Schedule) validate() error {
	if s == nil {
		return nil
	}
	for _, e := range s.Events {
		if err := e.validate(); err != nil {
			return err
		}
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
func Parse(spec string) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var s Schedule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, ev)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
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
	at, err := parseSeconds(atStr)
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
			d, err := parseSeconds(val)
			if err != nil {
				return Event{}, fmt.Errorf("fault: %q: bad recover %q: %v", part, val, err)
			}
			ev.RecoverAfter = d
		default:
			return Event{}, fmt.Errorf("fault: %q: unknown key %q", part, key)
		}
	}
	return ev, ev.validate()
}

// parseSeconds reads plain seconds, with or without an "s" suffix and in
// any form strconv.ParseFloat accepts ("30", "1e-07s", as Event.String
// renders them), or else a Go duration ("1m30s", "500ms").
func parseSeconds(s string) (float64, error) {
	if x, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64); err == nil {
		return x, nil
	}
	d, err := time.ParseDuration(s)
	return d.Seconds(), err
}

// target is the engine-side surface the compiled schedule drives. Fail and
// Slow pick their victims (deterministically, highest healthy index first)
// and return the affected physical worker ids so the matching recovery can
// restore exactly those; n <= 0 means the whole class.
type target interface {
	Fail(class, n int) []int
	Recover(phys []int)
	Slow(class, n int, factor float64) []int
	Restore(phys []int)
}

// Timed is one compiled action on the engine's timeline. Fire applies it to
// the target and returns a human-readable description for status logging.
type Timed struct {
	At   float64
	Fire func(target) string
}

// Compile turns a schedule into timeline actions, resolving class names via
// classIndex (empty name resolves to class 0). Recovery events share state
// with their fault so exactly the affected workers are restored. The result
// is sorted by time, ties in schedule order.
func Compile(s *Schedule, classIndex func(name string) (int, bool)) ([]Timed, error) {
	if s == nil || len(s.Events) == 0 {
		return nil, nil
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	var out []Timed
	for _, e := range s.Events {
		e := e
		ci := 0
		if e.Class != "" {
			idx, ok := classIndex(e.Class)
			if !ok {
				return nil, fmt.Errorf("fault: unknown class %q in %q", e.Class, e.String())
			}
			ci = idx
		}
		var affected []int
		label := e.Class
		if label == "" {
			label = "class0"
		}
		switch e.Kind {
		case Crash, Outage:
			n := e.N
			if e.Kind == Outage {
				n = 0 // whole class
			}
			out = append(out, Timed{At: e.At, Fire: func(t target) string {
				affected = t.Fail(ci, n)
				return fmt.Sprintf("%s %s: %d server(s) down %v", e.Kind, label, len(affected), affected)
			}})
			if e.RecoverAfter > 0 {
				out = append(out, Timed{At: e.At + e.RecoverAfter, Fire: func(t target) string {
					t.Recover(affected)
					return fmt.Sprintf("recover %s: %d server(s) back %v", label, len(affected), affected)
				}})
			}
		case Straggler:
			out = append(out, Timed{At: e.At, Fire: func(t target) string {
				affected = t.Slow(ci, e.N, e.Factor)
				return fmt.Sprintf("straggle %s: %d server(s) at %gx %v", label, len(affected), e.Factor, affected)
			}})
			if e.RecoverAfter > 0 {
				out = append(out, Timed{At: e.At + e.RecoverAfter, Fire: func(t target) string {
					t.Restore(affected)
					return fmt.Sprintf("restore %s: %d server(s) full speed %v", label, len(affected), affected)
				}})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}
