package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeProbe brackets a timed phase with the Go runtime's own accounting.
// The peak sampler runs only on traced passes: ReadMemStats stops the world,
// which an untraced pass must not pay for.
type runtimeProbe struct {
	cpu0   time.Duration
	mem0   runtime.MemStats
	stop   chan struct{}
	wg     sync.WaitGroup
	heapMB float64
	gorout int
}

func startRuntimeProbe(samplePeaks bool) *runtimeProbe {
	p := &runtimeProbe{cpu0: cpuTime(), gorout: runtime.NumGoroutine()}
	runtime.ReadMemStats(&p.mem0)
	p.heapMB = float64(p.mem0.HeapInuse) / (1 << 20)
	if samplePeaks {
		p.stop = make(chan struct{})
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			var m runtime.MemStats
			for {
				select {
				case <-p.stop:
					return
				case <-tick.C:
				}
				runtime.ReadMemStats(&m)
				p.heapMB = math.Max(p.heapMB, float64(m.HeapInuse)/(1<<20))
				if n := runtime.NumGoroutine(); n > p.gorout {
					p.gorout = n
				}
			}
		}()
	}
	return p
}

// finish stops the sampler and writes the runtime.* layer metrics, dividing
// the totals by ops (requests or rounds).
func (p *runtimeProbe) finish(ops float64, layer map[string]float64) {
	if p.stop != nil {
		close(p.stop)
		p.wg.Wait()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	layer["runtime.cpu_us_per_req"] = ratio(us(cpuTime()-p.cpu0), ops)
	layer["runtime.allocs_per_op"] = ratio(float64(m.Mallocs-p.mem0.Mallocs), ops)
	layer["runtime.bytes_per_op"] = ratio(float64(m.TotalAlloc-p.mem0.TotalAlloc), ops)
	layer["runtime.gc_cycles"] = float64(m.NumGC - p.mem0.NumGC)
	layer["runtime.gc_pause_total_ms"] = float64(m.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6
	layer["runtime.heap_inuse_peak_mb"] = math.Max(p.heapMB, float64(m.HeapInuse)/(1<<20))
	layer["runtime.goroutines_peak"] = float64(p.gorout)
}

// repeatSetup runs build until its median time is steady: at least three
// times and half a second in total or 200 times, but never past five seconds
// once two
// builds are in hand (the HTTP stacks bisect their capacity for seconds per
// build); once stops after the first. Every build but the last is handed to
// discard; the last is returned for the timed phase, with the median build
// time.
func repeatSetup[T any](once bool, build func() (T, error), discard func(T)) (T, float64, error) {
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, 0, err
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		total += d
		n := len(times)
		enough := n >= 3 && total >= 500*time.Millisecond
		if once || enough || n >= 200 || (n >= 2 && total >= 5*time.Second) {
			return v, median(times), nil
		}
		discard(v)
	}
}
