package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func loadDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// verdict compares b against a for one metric. A change within the bound
// either way is "same"; a side whose own quartiles lie further apart than the
// bound cannot support a verdict and is "unresolved".
func verdict(def metricDef, a, b sample) string {
	base := math.Abs(a.Median)
	if base == 0 {
		return "unresolved"
	}
	for _, s := range []sample{a, b} {
		if len(s.Values) >= 4 && (s.Q3-s.Q1)/math.Abs(s.Median) > def.Bound {
			return "unresolved"
		}
	}
	worse := (b.Median - a.Median) / base
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > def.Bound:
		return "worse"
	case worse < -def.Bound:
		return "better"
	}
	return "same"
}

// runCompare prints one row per (workload, end-to-end metric) of two suite
// documents and returns 1 when any row is worse, 2 on unusable input.
func runCompare(pathA, pathB string) int {
	a, err := loadDocument(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lokibench:", err)
		return 2
	}
	b, err := loadDocument(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lokibench:", err)
		return 2
	}
	return compareDocs(a, b)
}

func compareDocs(a, b *document) int {
	if a.Env.Seconds != b.Env.Seconds {
		fmt.Fprintf(os.Stderr, "lokibench: run lengths differ (%g s vs %g s): not comparable\n", a.Env.Seconds, b.Env.Seconds)
		return 2
	}
	other := map[string]*workloadDoc{}
	for i := range b.Workloads {
		other[b.Workloads[i].Name] = &b.Workloads[i]
	}
	fmt.Printf("%-14s %-22s %14s %14s %7s  %s\n", "workload", "metric", a.Env.Commit, b.Env.Commit, "bound", "verdict")
	code := 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := other[wa.Name]
		if wb == nil {
			continue
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			v := verdict(def, sa, sb)
			if wa.Unresolved != "" || wb.Unresolved != "" || !wa.Correct || !wb.Correct {
				v = "unresolved"
			}
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %6.0f%%  %s\n", wa.Name, def.Name, sa.Median, sb.Median, 100*def.Bound, v)
		}
	}
	return code
}
