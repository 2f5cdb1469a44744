package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loki"
	"loki/internal/ingress"
)

// httpSpec is one HTTP workload: the public MultiSystem on the Wallclock
// engine behind a real listener, one pipeline, admission on. The offered rate
// is fixed in requests per second, not derived from the system's own
// MaxCapacity, so both sides of a comparison receive the same input.
type httpSpec struct {
	name    string
	servers int
	qps     float64
}

const httpPipeline = "traffic"

// reqHeader carries the request's index in the schedule so the traced
// handler and Submit wrappers file their timestamps under it.
const reqHeader = "X-Bench-Req"

type reqKey struct{}

// httpStack is one stood-up system: built, listening, connections warm and
// the plan primed for the offered rate.
type httpStack struct {
	sys        *loki.MultiSystem
	srv        *http.Server
	served     chan error
	url        string
	transports []*http.Transport
	clients    []*http.Client
	times      *reqTimes // nil on the untraced pass
	buildPrime time.Duration
}

// reqTimes holds the server-side timestamps of a traced pass, indexed by
// request: handler and Submit entry and exit in nanoseconds since epoch.
// Handler goroutines write and the sender reads after the reply, so the
// slots are atomics.
type reqTimes struct {
	epoch                   time.Time
	hStart, hEnd, sIn, sOut []atomic.Int64
}

func newReqTimes(n int) *reqTimes {
	return &reqTimes{
		epoch:  time.Now(),
		hStart: make([]atomic.Int64, n), hEnd: make([]atomic.Int64, n),
		sIn: make([]atomic.Int64, n), sOut: make([]atomic.Int64, n),
	}
}

func (t *reqTimes) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func senders() int { return min(runtime.NumCPU(), 2) }

// buildHTTP stands the stack up. n is the number of requests the schedule
// holds (sizes the traced pass's timestamp arrays).
func buildHTTP(spec httpSpec, cfg runConfig, n int) (*httpStack, error) {
	opts := []loki.Option{
		loki.WithEngine(loki.Wallclock), loki.WithServers(spec.servers),
		loki.WithSeed(cfg.seed), loki.WithAdmission(true),
	}
	if cfg.trace {
		// The stage breakdown reads the system's own sampled request traces;
		// a quarter of the requests gives its p99 enough samples.
		opts = append(opts, loki.WithTraceSampling(0.25))
	}
	sys, err := loki.NewMulti(opts...)
	if err != nil {
		return nil, err
	}
	if err := sys.AddPipeline(httpPipeline, loki.TrafficAnalysisPipeline()); err != nil {
		return nil, err
	}
	st := &httpStack{sys: sys, served: make(chan error, 1)}
	var handler http.Handler = sys
	if cfg.trace {
		st.times = newReqTimes(n)
		handler = st.tracedHandler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: handler}
	go func() { st.served <- st.srv.Serve(ln) }()

	for i := 0; i < senders(); i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		st.transports = append(st.transports, tr)
		st.clients = append(st.clients, &http.Client{Transport: tr})
	}
	// Warm each sender's keep-alive connection on the health endpoint,
	// which never reaches the engine.
	for _, c := range st.clients {
		resp, err := c.Get(st.url + "/healthz")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Prime: an empty-duration trace at the offered rate makes the first
	// injection plan for that rate (build, capacity bisect, first joint
	// allocation, engine start) without admitting a request.
	t0 := time.Now()
	if err := sys.Feed(httpPipeline, loki.RampTrace(spec.qps, spec.qps, 1, 1e-9)); err != nil {
		st.close()
		return nil, fmt.Errorf("prime: %w", err)
	}
	st.buildPrime = time.Since(t0)
	return st, nil
}

// tracedHandler rebuilds the front door from the harness — the same
// ingress.NewServer the MultiSystem mounts — around a wrapped Submit, so the
// handler and Submit spans are recorded from this file.
func (st *httpStack) tracedHandler() http.Handler {
	sys, times := st.sys, st.times
	inner := ingress.NewServer(ingress.ServerConfig{
		Pipelines: sys.Pipelines(),
		Submit: func(ctx context.Context, pipeline string) error {
			id, ok := ctx.Value(reqKey{}).(int)
			if !ok {
				return sys.Submit(ctx, pipeline)
			}
			times.sIn[id].Store(times.now())
			err := sys.Submit(ctx, pipeline)
			times.sOut[id].Store(times.now())
			return err
		},
		Snapshot: func(pipeline string) (any, error) { return sys.Snapshot(pipeline) },
		Metrics:  func(w io.Writer) { sys.Telemetry().WritePrometheus(w) },
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil || id < 0 || id >= len(times.hStart) {
			inner.ServeHTTP(w, r)
			return
		}
		times.hStart[id].Store(times.now())
		inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqKey{}, id)))
		times.hEnd[id].Store(times.now())
	})
}

// close shuts the listener, the client connections and the system, and waits
// for each. Safe on a half-built stack.
func (st *httpStack) close() (drain time.Duration, err error) {
	if st.srv != nil {
		st.srv.Close()
		<-st.served
	}
	for _, tr := range st.transports {
		tr.CloseIdleConnections()
	}
	t0 := time.Now()
	err = st.sys.Stop()
	return time.Since(t0), err
}

// schedule is the open-loop Poisson arrival process, pre-generated from the
// seed: sender k owns an independent stream at 1/senders of the rate. Request
// ids are dense over the whole schedule.
type schedule struct {
	due [][]time.Duration // per sender, offsets from the start of the phase
	ids [][]int
	n   int
}

func newSchedule(seed int64, qps, seconds float64) *schedule {
	k := senders()
	s := &schedule{due: make([][]time.Duration, k), ids: make([][]int, k)}
	for i := 0; i < k; i++ {
		// A Poisson process conditioned on its count: the sorted uniform
		// times of exactly rate × seconds arrivals. Every seed offers the
		// same number of requests, so goodput does not inherit the count's
		// one-percent scatter.
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		n := int(qps*seconds) / k
		due := make([]time.Duration, n)
		for j := range due {
			due[j] = time.Duration(rng.Float64() * seconds * float64(time.Second))
		}
		sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
		s.due[i] = due
		for range due {
			s.ids[i] = append(s.ids[i], s.n)
			s.n++
		}
	}
	return s
}

// sent is the client's record of one request.
type sent struct {
	id       int
	status   int // 0 on a transport error
	send     time.Duration
	reply    time.Duration
	lag      time.Duration // send − due
	busy     bool          // the sender was still waiting on its previous reply when this one fell due
	retrySec float64       // Retry-After of a 429 (traced pass: from the body, sub-second)
}

// service is what the client waited on the wire: send to reply.
func (s *sent) service() time.Duration { return s.reply - s.send }

// admit is the request's admission latency in the open loop, with timer slack
// removed: from the due time when the sender was busy at that instant (the
// wait a stall imposes on later requests counts), otherwise from the actual
// send.
func (s *sent) admit() time.Duration {
	if s.busy {
		return s.reply - (s.send - s.lag)
	}
	return s.reply - s.send
}

// send plays one sender's schedule on its keep-alive connection.
func (st *httpStack) send(k int, sch *schedule, start time.Time, traced bool) []sent {
	out := make([]sent, 0, len(sch.due[k]))
	url := st.url + "/v1/" + httpPipeline + "/infer"
	var body bytes.Buffer
	for j, due := range sch.due[k] {
		rec := sent{id: sch.ids[k][j]}
		now := time.Since(start)
		if now < due {
			time.Sleep(due - now)
			now = time.Since(start)
		} else {
			rec.busy = true
		}
		rec.send, rec.lag = now, now-due
		req, err := http.NewRequest(http.MethodPost, url, http.NoBody)
		if err == nil {
			if traced {
				req.Header.Set(reqHeader, strconv.Itoa(rec.id))
			}
			var resp *http.Response
			if resp, err = st.clients[k].Do(req); err == nil {
				rec.status = resp.StatusCode
				body.Reset()
				_, err = io.Copy(&body, resp.Body)
				resp.Body.Close()
				if rec.status == http.StatusTooManyRequests {
					rec.retrySec = retryAfter(resp, body.Bytes(), traced)
				}
			}
		}
		if err != nil {
			rec.status = 0
		}
		rec.reply = time.Since(start)
		out = append(out, rec)
	}
	return out
}

// retryAfter reads a shed response's hint: whole seconds from the header, or
// on a traced pass the sub-second value the body repeats.
func retryAfter(resp *http.Response, body []byte, fromBody bool) float64 {
	if fromBody {
		var b struct {
			RetryAfterSec float64 `json:"retry_after_sec"`
		}
		if json.Unmarshal(body, &b) == nil && b.RetryAfterSec > 0 {
			return b.RetryAfterSec
		}
	}
	sec, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return float64(sec)
}

func runHTTP(spec httpSpec, cfg runConfig) (*outcome, error) {
	sch := newSchedule(cfg.seed, spec.qps, cfg.seconds)
	st, setup, err := repeatSetup(cfg.oneSetup,
		func() (*httpStack, error) { return buildHTTP(spec, cfg, sch.n) },
		func(s *httpStack) { s.close() })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	o := newOutcome()
	o.e2e["setup_s"] = setup

	probe := startRuntimeProbe(cfg.trace)
	start := time.Now()
	per := make([][]sent, senders())
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			per[k] = st.send(k, sch, start, cfg.trace)
		}(k)
	}
	wg.Wait()

	// Live observations that need the system still running.
	var snapUs []float64
	occupancy := 0.0
	if cfg.trace {
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			snap, err := st.sys.Snapshot(httpPipeline)
			snapUs = append(snapUs, us(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			if i == 0 {
				busy, n := 0.0, 0
				for _, w := range snap.Workers {
					if w.Assigned != "" {
						busy += w.Occupancy
						n++
					}
				}
				occupancy = ratio(busy, float64(n))
			}
		}
	}
	drain, stopErr := st.close()
	closed = true
	if stopErr != nil {
		o.violate("stop: %v", stopErr)
	}

	// Client side: every request got exactly one of 202, 429 or a failure.
	var all []sent
	for _, p := range per {
		all = append(all, p...)
	}
	var n202, n429, nOther int64
	var acceptUs, shedUs, admitUs, lagMs, slackUs []float64
	retrySum := 0.0
	for i := range all {
		s := &all[i]
		switch s.status {
		case http.StatusAccepted:
			n202++
			acceptUs = append(acceptUs, us(s.service()))
		case http.StatusTooManyRequests:
			n429++
			retrySum += s.retrySec
			shedUs = append(shedUs, us(s.service()))
		default:
			nOther++
		}
		admitUs = append(admitUs, us(s.admit()))
		lagMs = append(lagMs, ms(s.lag))
		if !s.busy {
			slackUs = append(slackUs, us(s.lag))
		}
	}
	offered := int64(len(all))
	o.attempted = offered
	o.failed += nOther
	if nOther > 0 {
		o.violations = append(o.violations, fmt.Sprintf("%d requests answered neither 202 nor 429", nOther))
	}

	// Server side: conservation after Stop.
	rep, err := st.sys.Report(httpPipeline)
	if err != nil {
		return nil, err
	}
	if rep.Arrivals != rep.Completed+rep.Late+rep.Dropped {
		o.violate("arrivals %d != on-time %d + late %d + dropped %d", rep.Arrivals, rep.Completed, rep.Late, rep.Dropped)
	}
	if rep.Arrivals != n202 {
		o.violate("engine arrivals %d != 202 answers %d", rep.Arrivals, n202)
	}
	if rep.Shed != n429 {
		o.violate("engine shed %d != 429 answers %d", rep.Shed, n429)
	}

	o.e2e["slo_attainment"] = ratio(float64(rep.Completed), float64(offered))
	o.e2e["goodput_per_s"] = float64(rep.Completed) / cfg.seconds
	o.e2e["accuracy_mean"] = rep.Accuracy
	o.e2e["servers_mean"] = rep.MeanServers
	o.e2e["latency_p50_ms"] = ms(rep.LatencyP50)
	o.e2e["latency_tail_ms"] = ms(rep.LatencyP99)
	// Accepted requests only (a 429 takes a shorter path), and their fastest
	// tenth: send → 202 is spread wide (p05 25 µs, p50 70 µs, p75 130 µs on
	// http-overload) and everything above the path's own cost is scheduling
	// delay, which on a shared host moves the median by half from one pass
	// to the next while the tenth percentile moves by a twentieth.
	o.e2e["admit_latency_p10_us"] = quantile(acceptUs, 0.10)

	lagP99 := quantile(lagMs, 0.99)
	if lagP99 > 10 {
		o.unresolved = fmt.Sprintf("loadgen.lag_p99_ms %.1f exceeds 10 ms: the generator, not the system, set the pace", lagP99)
	}
	if !cfg.trace {
		return o, nil
	}

	l := o.layer
	probe.finish(float64(offered), l)
	l["loadgen.sent"] = float64(offered)
	l["loadgen.lag_p99_ms"] = lagP99
	l["loadgen.timer_slack_p50_us"] = median(slackUs)
	l["ingress.responses_202"] = float64(n202)
	l["ingress.responses_429"] = float64(n429)
	l["ingress.responses_other"] = float64(nOther)
	l["ingress.shed_share"] = ratio(float64(n429), float64(offered))
	l["ingress.retry_after_mean_s"] = ratio(retrySum, float64(n429))
	l["ingress.admit_latency_p50_us"] = median(acceptUs)
	l["ingress.admit_latency_p99_us"] = quantile(admitUs, 0.99)
	l["ingress.shed_latency_p50_us"] = median(shedUs)
	l["tenancy.snapshot_us"] = median(snapUs)
	l["tenancy.build_prime_ms"] = ms(st.buildPrime)
	l["live.late"] = float64(rep.Late)
	l["live.dropped"] = float64(rep.Dropped)
	l["live.rerouted"] = float64(rep.Rerouted)
	l["live.occupancy_mean"] = occupancy
	l["live.stop_drain_ms"] = ms(drain)

	rec := newRecorder()
	st.spansInto(rec, all, start, l)
	stageMetrics(st.sys, rep, l)
	controlMetrics(st.sys, []string{httpPipeline}, l)
	observeMetrics(st.sys, httpPipeline, l)
	replayLayers(cfg.seed, l)
	return o, finishTracing(rec, cfg, spec.name, cpuTime()-probe.cpu0, l)
}

// spansInto turns the client records and the server-side timestamp arrays
// into spans (client request → handler → Submit) and derives the nethttp,
// ingress and tenancy timings from them.
func (st *httpStack) spansInto(rec *recorder, all []sent, start time.Time, l map[string]float64) {
	t := st.times
	off := start.Sub(t.epoch).Nanoseconds() // client offsets → recorder epoch
	rec.epoch = t.epoch
	var overhead, handlerSelf, submit []float64
	for i := range all {
		s := &all[i]
		base := int64(3 * s.id)
		rec.add(span{Name: "loadgen.request", ID: base + 1, Req: int64(s.id), Start: off + s.send.Nanoseconds(), End: off + s.reply.Nanoseconds()})
		hs, he := t.hStart[s.id].Load(), t.hEnd[s.id].Load()
		if he == 0 {
			continue
		}
		rec.add(span{Name: "ingress.handler", ID: base + 2, Parent: base + 1, Req: int64(s.id), Start: hs, End: he})
		overhead = append(overhead, float64((s.reply-s.send).Nanoseconds()-(he-hs))/1e3)
		si, so := t.sIn[s.id].Load(), t.sOut[s.id].Load()
		if so == 0 {
			continue
		}
		rec.add(span{Name: "tenancy.submit", ID: base + 3, Parent: base + 2, Req: int64(s.id), Start: si, End: so})
		handlerSelf = append(handlerSelf, float64((he-hs)-(so-si))/1e3)
		submit = append(submit, float64(so-si)/1e3)
	}
	l["nethttp.overhead_p50_us"] = median(overhead)
	l["ingress.handler_self_p50_us"] = median(handlerSelf)
	l["ingress.handler_self_p99_us"] = quantile(handlerSelf, 0.99)
	l["tenancy.submit_p50_us"] = median(submit)
	l["tenancy.submit_p99_us"] = quantile(submit, 0.99)
}

// stageMetrics reads the live engine's own sampled request traces: queue wait,
// execution and batch size per stage (request-weighted over stages), measured
// execution against the profiled latency of the hosting variant at the
// observed batch, and the gap between a parent stage finishing and its child
// joining a queue.
func stageMetrics(sys *loki.MultiSystem, rep *loki.Report, l map[string]float64) {
	var n, qw50, qw99, ex50, batch float64
	for _, s := range rep.Stages {
		c := float64(s.Count)
		n += c
		qw50 += c * s.QueueP50
		qw99 += c * s.QueueP99
		ex50 += c * s.ExecP50
		batch += c * s.MeanBatch
	}
	l["live.queue_wait_p50_ms"] = ratio(qw50, n) * 1e3
	l["live.queue_wait_p99_ms"] = ratio(qw99, n) * 1e3
	l["live.exec_p50_ms"] = ratio(ex50, n) * 1e3
	l["live.batch_mean"] = ratio(batch, n)

	var buf bytes.Buffer
	if err := sys.WriteTraces(&buf); err != nil {
		return
	}
	var exports []struct {
		Traces []loki.RequestTrace `json:"traces"`
	}
	if json.Unmarshal(buf.Bytes(), &exports) != nil || len(exports) == 0 {
		return
	}
	pipe := loki.TrafficAnalysisPipeline()
	taskOf := map[string]*loki.Task{}
	parentOf := map[string]string{}
	for i := range pipe.Tasks {
		t := &pipe.Tasks[i]
		taskOf[t.Name] = t
		for _, ch := range t.Children {
			parentOf[pipe.Tasks[ch.Task].Name] = t.Name
		}
	}
	var overshoot, gap []float64
	for _, tr := range exports[0].Traces {
		endOf := map[string]float64{}
		for _, sp := range tr.Spans {
			endOf[sp.Stage] = sp.EndSec
		}
		for _, sp := range tr.Spans {
			if t := taskOf[sp.Stage]; t != nil {
				// The span names the stage, not the variant: the hosting
				// variant is the one whose profiled latency at this batch
				// lies closest below the measured execution.
				best := -1.0
				for v := range t.Variants {
					if p := t.Variants[v].Latency(sp.Batch); p <= sp.ExecSec && p > best {
						best = p
					}
				}
				if best >= 0 {
					overshoot = append(overshoot, (sp.ExecSec-best)*1e3)
				}
			}
			if pe, ok := endOf[parentOf[sp.Stage]]; ok && sp.EnqueuedSec >= pe {
				gap = append(gap, (sp.EnqueuedSec-pe)*1e3)
			}
		}
	}
	l["live.exec_overshoot_p50_ms"] = median(overshoot)
	l["live.fanout_gap_p50_ms"] = median(gap)
}
