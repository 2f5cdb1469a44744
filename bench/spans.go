package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval at a layer boundary, recorded from the harness around
// a call into that layer's public functions. Spans of one request or one
// planning round share Req; Parent is the span that caused this one (0 for a
// root). Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder is
// the untraced pass: begin and end are no-ops, so workloads run one code path.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// begin opens a span and returns its index, which is also its ID minus one.
func (r *recorder) begin(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: t})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int64) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// add records a span whose times were measured elsewhere (the HTTP path keeps
// per-request timestamps in preallocated arrays instead of taking the lock).
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// durations returns every closed span's duration in microseconds, by name.
func (r *recorder) durations() map[string][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range r.spans {
		if s.End >= s.Start && s.End > 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the part
// of that interval its direct children cover (children may overlap: parallel
// tenant solves inside one round), in microseconds.
func (r *recorder) selfTimes(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int64][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name != name || s.End < s.Start {
			continue
		}
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, hi := int64(0), s.Start
		for _, k := range iv {
			lo, end := max(k[0], hi), min(k[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// perSpanCost measures what one begin/end pair costs on this machine, so the
// tracing overhead of a pass is spans × cost over the CPU time it used.
func perSpanCost() time.Duration {
	const n = 200000
	r := newRecorder()
	r.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate", 0, int64(i)))
	}
	return time.Since(t0) / n
}

// maxSpansWritten bounds the spans file: a dense HTTP pass records a few
// hundred thousand spans, and the first hundred thousand already cover
// every layer boundary many times over.
const maxSpansWritten = 100000

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	n := min(len(r.spans), maxSpansWritten)
	for i := 0; i < n && err == nil; i++ {
		err = enc.Encode(&r.spans[i])
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
