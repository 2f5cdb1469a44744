package profiles

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Class describes one hardware class of a heterogeneous cluster: Count
// interchangeable servers of the same accelerator generation, all running at
// Speed × the profiled reference speed (1.0 = the homogeneous GTX 1080 Ti
// testbed) and costing CostPerHour per active server-hour. Workers never
// migrate across classes — a model swap keeps a server inside its class —
// and the Resource Manager holds one capacity constraint per class.
type Class struct {
	Name        string
	Count       int
	Speed       float64
	CostPerHour float64
}

// DefaultClassName names the implicit single class of a homogeneous cluster.
const DefaultClassName = "default"

// DefaultClasses returns the homogeneous fleet every pre-hetero entry point
// implies: one class named "default" holding all servers at Speed 1.0 and
// zero cost, which reproduces the pre-class planner and engines bit for bit.
func DefaultClasses(servers int) []Class {
	return []Class{{Name: DefaultClassName, Count: servers, Speed: 1.0}}
}

// TotalCount returns the number of servers across all classes.
func TotalCount(classes []Class) int {
	n := 0
	for _, c := range classes {
		n += c.Count
	}
	return n
}

// ValidateClasses checks a class set: at least one class, unique non-empty
// names, positive counts, positive finite speeds, non-negative finite costs.
func ValidateClasses(classes []Class) error {
	if len(classes) == 0 {
		return fmt.Errorf("profiles: need at least one hardware class")
	}
	seen := map[string]bool{}
	for _, c := range classes {
		if c.Name == "" {
			return fmt.Errorf("profiles: hardware class needs a name")
		}
		if seen[c.Name] {
			return fmt.Errorf("profiles: duplicate hardware class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Count <= 0 {
			return fmt.Errorf("profiles: hardware class %q needs a positive count, got %d", c.Name, c.Count)
		}
		if !(c.Speed > 0) || math.IsInf(c.Speed, 1) {
			return fmt.Errorf("profiles: hardware class %q needs a positive finite speed, got %g", c.Name, c.Speed)
		}
		if !(c.CostPerHour >= 0) || math.IsInf(c.CostPerHour, 1) {
			return fmt.Errorf("profiles: hardware class %q needs a non-negative finite cost, got %g", c.Name, c.CostPerHour)
		}
	}
	return nil
}

// SameClasses reports whether two class sets are identical (same order,
// names, counts, speeds, costs) — the check multi-tenant arbitration uses to
// ensure every tenant describes the one shared pool the same way.
func SameClasses(a, b []Class) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ParseClasses parses a fleet specification of the form
// "a100:4@2.0,v100:8@1.0,cpu:16@0.25" — comma-separated name:count@speed
// entries, each with an optional fourth @cost-per-hour part
// ("a100:4@2.0@3.5"). An empty spec returns nil (the caller's default
// fleet).
func ParseClasses(spec string) ([]Class, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Class
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, rest, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("profiles: hardware class %q: want name:count@speed[@cost]", part)
		}
		fields := strings.Split(rest, "@")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("profiles: hardware class %q: want name:count@speed[@cost]", part)
		}
		count, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("profiles: hardware class %q: bad count: %v", part, err)
		}
		speed, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("profiles: hardware class %q: bad speed: %v", part, err)
		}
		cl := Class{Name: name, Count: count, Speed: speed}
		if len(fields) == 3 {
			cost, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("profiles: hardware class %q: bad cost: %v", part, err)
			}
			cl.CostPerHour = cost
		}
		out = append(out, cl)
	}
	if err := ValidateClasses(out); err != nil {
		return nil, err
	}
	return out, nil
}
