package experiments

import (
	"fmt"
	"os"
	"testing"
)

// TestChaosGrantProbe is a diagnostic, not a regression test: it replays the
// chaos grid's headline outage cell in both arms and prints the per-step
// grant totals, the three window scores, and the per-second series around
// the fault, so tier engagement and shedding behaviour are visible. It only
// runs when LOKI_PROBE is set:
//
//	LOKI_PROBE=1 go test ./internal/experiments -run ChaosGrantProbe -v
//
// For live systems the same grant trajectory is exported as structured
// telemetry: loki_planner_grant_servers{tenant} gauges each tenant's grant
// after every allocation round, and loki_planner_rounds_total counts the
// rounds — scrape GET /metrics (or read MultiSystem.Telemetry) to watch
// tier engagement without a replay.
func TestChaosGrantProbe(t *testing.T) {
	if os.Getenv("LOKI_PROBE") == "" {
		t.Skip("diagnostic probe; set LOKI_PROBE=1 to run")
	}
	for _, tiered := range []bool{true, false} {
		cfg := ChaosConfig{Quick: true, Seed: 11}
		_, at, length := cfg.timing()
		var lines []string
		chaosOnGrants = func(step int, totals []int) {
			lines = append(lines, fmt.Sprintf("step=%d totals=%v", step, totals))
		}
		cols, events, err := chaosRun(cfg, tiered, cfg.chaosFaults("outage", false))
		chaosOnGrants = nil
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("tiered=%v events=%v", tiered, events)
		for _, l := range lines {
			t.Logf("  %s", l)
		}
		b0, b1, d0, d1, a0, a1 := cfg.windows()
		for i, col := range cols {
			s, series := col.Summarize(), col.Series()
			bw := window(series, b0, b1).score()
			dw := window(series, d0, d1).score()
			aw := window(series, a0, a1).score()
			t.Logf("  tenant=%d before=%.4f during=%.4f(shed%%=%.1f) after=%.4f | viol=%.4f shed=%d late=%d dropped=%d completed=%d",
				i, bw.attainment, dw.attainment, dw.shedPct, aw.attainment,
				s.ViolationRatio, s.Shed, s.Late, s.Dropped, s.Completed)
			for _, p := range series {
				if p.TimeSec >= at-5 && p.TimeSec < at+length+10 {
					t.Logf("    t=%2.0f arr=%3d shed=%3d viol=%3d", p.TimeSec, p.Arrivals, p.Shed, p.Violations)
				}
			}
		}
	}
}
