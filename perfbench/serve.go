package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/rel"
	"repro/internal/service"
	"repro/internal/shred"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/xpath"
)

type serveKind int

const (
	tuned serveKind = iota // Greedy's design, resident Built
	scan                   // hybrid inlining, no design, paged store at 1/4 of the data
)

func (k serveKind) String() string { return [...]string{"serve-tuned", "serve-scan"}[k] }

// openRate is the open-loop arrival rate in requests/s, a quarter to a
// third of the closed-loop throughput measured at the commit that added
// the benchmark on a 2-CPU Xeon (at half, queueing dominated the
// latencies). It is pinned so later changes are judged at the same
// offered load.
var openRate = [...]float64{tuned: 750, scan: 50}

const (
	sessions = 2 // = nproc on the machine the benchmark was defined on
	// sampleEvery: one request in this many is decoded in full and
	// checked against the reference; the rest are read and discarded,
	// so the client's JSON decode does not dominate the process.
	sampleEvery = 16
	corpusName  = "dblp"
)

// obsCfg switches on the program's own observability (nil = off).
type obsCfg struct {
	tr  *tracer
	oc  *obsClock
	reg *obs.Registry
}

func (o *obsCfg) tracer() *tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// served is one corpus behind a running HTTP server, with the
// reference results its responses are checked against.
type served struct {
	mapping *shred.Mapping
	cfg     *physical.Config
	db      *rel.Database
	plans   []planned
	want    []*engine.Result
	store   *storage.Store
	svc     *service.Service
	stop    func() error // stops the HTTP server
	url     string
	hc      *http.Client
	bodies  [][]byte // request body per (query, tenant)
	space   float64  // space_amp
	greedy  *core.Result
	built   *engine.Built // the served Built (tuned only)
}

func (s *served) close() {
	s.hc.CloseIdleConnections()
	if s.stop != nil {
		s.stop()
	}
	s.svc.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// setupServe builds a served corpus: generation, statistics, the
// Greedy search (tuned), shred, build, save and open (scan), the
// server, and one warm-up pass of the mix per tenant.
func setupServe(b *bench, kind serveKind, rep int, o *obsCfg) (*served, error) {
	tr := o.tracer()
	fix, err := newFixture(b.seed, tr)
	if err != nil {
		return nil, err
	}
	cfg := service.Config{}
	var built *engine.Built
	s := &served{}
	if o != nil {
		cfg.Tracer, cfg.Registry = o.oc.tr, o.reg
	}
	s.svc = service.New(cfg)
	switch kind {
	case tuned:
		copts := core.Options{Parallelism: sessions}
		if o != nil {
			copts.Obs, copts.Registry = o.oc.tr, o.reg
		}
		sp := tr.begin(0, -1, "core.greedy")
		res, err := core.New(fix.tree, fix.col, fix.mix, copts).Greedy()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("greedy: %w", err)
		}
		s.greedy, s.mapping, s.cfg = res, res.Mapping, res.Config
		sp = tr.begin(0, -1, "shred.shred")
		s.db, err = shred.Shred(res.Mapping, fix.doc)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin(0, -1, "engine.build")
		built, err = engine.Build(s.db, res.Config)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		s.space = float64(s.db.Bytes()+built.StructBytes) / float64(s.db.Bytes())
		s.built = built
	case scan:
		s.mapping, s.db, built, err = fix.hybrid(tr)
		if err != nil {
			return nil, err
		}
		s.cfg = built.Config
	}
	if s.plans, err = planMix(fix, s.mapping, s.db, s.cfg); err != nil {
		return nil, err
	}
	if s.want, err = references(built, s.plans); err != nil {
		return nil, err
	}
	switch kind {
	case tuned:
		err = s.svc.RegisterBuilt(corpusName, built, s.mapping, s.cfg)
	case scan:
		dir := b.repDir(kind.String(), rep)
		if _, err = storage.Save(dir, built, storage.Options{MappingSQL: s.mapping.SQLSchema()}); err != nil {
			return nil, err
		}
		sopts := storage.Options{MemBudgetBytes: s.db.Bytes() / 4}
		if o != nil {
			sopts.Registry = o.reg
		}
		sp := tr.begin(0, -1, "storage.open")
		s.store, err = storage.Open(dir, sopts)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err = s.svc.RegisterStore(corpusName, s.store, s.mapping, true); err != nil {
			s.store.Close()
			return nil, err
		}
		s.space = float64(dirBytes(dir)) / float64(s.db.Bytes())
	}
	if err != nil {
		return nil, err
	}
	if err := s.listen(tr); err != nil {
		s.close()
		return nil, err
	}
	for _, text := range fix.texts {
		for t := 0; t < sessions; t++ {
			body, err := json.Marshal(service.Request{Corpus: corpusName, Tenant: fmt.Sprintf("tenant-%d", t), XPath: text})
			if err != nil {
				return nil, err
			}
			s.bodies = append(s.bodies, body)
		}
	}
	for q := range fix.texts {
		for t := 0; t < sessions; t++ {
			if _, err := s.do(context.Background(), q, t, true, nil, -1); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	return s, nil
}

// listen starts the HTTP server: service.Serve when untraced; with
// tracing, the same handler behind a wrapper that records an
// http.handler span under the client's http.roundtrip span.
func (s *served) listen(tr *tracer) error {
	s.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: sessions, MaxIdleConnsPerHost: sessions, DisableCompression: true,
	}}
	if tr == nil {
		srv, err := service.Serve("127.0.0.1:0", s.svc)
		if err != nil {
			return err
		}
		s.url, s.stop = "http://"+srv.Addr, srv.Close
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := s.svc.Handler()
	srv := &http.Server{ReadHeaderTimeout: 5 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get("X-Request-ID"), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get("X-Parent-Span"))
		if err != nil {
			parent = -1
		}
		sp := tr.begin(req, parent, "http.handler")
		h.ServeHTTP(w, r)
		tr.end(sp)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	}()
	s.url = "http://" + ln.Addr().String()
	s.stop = func() error {
		err := srv.Close()
		<-done
		return err
	}
	return nil
}

// reply is what one request produced.
type reply struct {
	ok      bool
	bytes   int64
	sampled *service.Response // decoded response, when sampled
}

// do sends mix query q as a tenant. The body is always read; when
// sample is set it is decoded with service.Client's decoder and
// compared with the reference. A non-200 status is a failed request; a
// wrong answer is an error. With tr set, the round trip is a span
// under parent and the server's span joins the same request.
func (s *served) do(ctx context.Context, q, tenant int, sample bool, tr *tracer, parent int) (reply, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/query", bytes.NewReader(s.bodies[q*sessions+tenant]))
	if err != nil {
		return reply{}, err
	}
	hr.Header.Set("Content-Type", "application/json")
	var sp int
	if tr != nil {
		req := tr.request()
		if parent >= 0 {
			req = tr.reqOf(parent)
		}
		sp = tr.begin(req, parent, "http.roundtrip")
		hr.Header.Set("X-Request-ID", strconv.FormatInt(req, 10))
		hr.Header.Set("X-Parent-Span", strconv.Itoa(sp))
	}
	resp, err := s.hc.Do(hr)
	if err != nil {
		tr.end(sp)
		return reply{}, nil // transport failure: counted as failed
	}
	var body []byte
	var n int64
	if sample || resp.StatusCode != http.StatusOK {
		body, err = io.ReadAll(resp.Body)
		n = int64(len(body))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	tr.end(sp)
	if err != nil || resp.StatusCode != http.StatusOK {
		return reply{bytes: n}, nil
	}
	out := reply{ok: true, bytes: n}
	if sample {
		r, err := decodeBody(body)
		if err != nil {
			return reply{}, wrongf("%s: undecodable response: %v", s.plans[q].text, err)
		}
		if err := sameResult(s.plans[q].text, s.want[q], r.Cols, r.Rows); err != nil {
			return reply{}, err
		}
		out.sampled = r
	}
	return out, nil
}

// canned is a RoundTripper that answers with a fixed 200 body, so a
// captured response can be decoded by service.Client's own decoder.
type canned []byte

func (c canned) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // in-memory request body
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		Body: io.NopCloser(bytes.NewReader(c))}, nil
}

func decodeBody(body []byte) (*service.Response, error) {
	return service.NewClient("http://decode", &http.Client{Transport: canned(body)}).Query(context.Background(), service.Request{})
}

// loopOut aggregates one load phase.
type loopOut struct {
	attempted, failed, completed int64
	elapsed                      time.Duration
	cpu                          time.Duration
	lat, late                    []float64 // ms
	done                         []float64 // s since the phase began, per completion
	queued, workers              []float64 // from sampled responses
}

// loop drives the mix from `sessions` goroutines, one tenant each, for
// d. rate 0 is a closed loop: each session sends its next request when
// the reply arrives. rate > 0 is an open loop: request i is due at
// start + i/rate, and its latency runs from when it was due.
func (s *served) loop(d time.Duration, rate float64, tr *tracer) (*loopOut, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		ticket   atomic.Int64
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	outs := make([]loopOut, sessions)
	n := int64(len(s.plans))
	cpu0 := cpuTime()
	start := time.Now()
	for sess := 0; sess < sessions; sess++ {
		wg.Add(1)
		go func(sess int) {
			defer wg.Done()
			o := &outs[sess]
			for ctx.Err() == nil {
				i := ticket.Add(1) - 1
				t0 := time.Now()
				if rate > 0 {
					due := start.Add(time.Duration(float64(i) / rate * 1e9))
					if due.Sub(start) >= d {
						return
					}
					if w := time.Until(due); w > 0 {
						time.Sleep(w)
					}
					o.late = append(o.late, ms(time.Since(due)))
					t0 = due
				} else if t0.Sub(start) >= d {
					return
				}
				o.attempted++
				r, err := s.do(ctx, int(i%n), sess, i%sampleEvery == 0, tr, -1)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					return
				}
				if !r.ok {
					o.failed++
					continue
				}
				o.completed++
				o.lat = append(o.lat, ms(time.Since(t0)))
				o.done = append(o.done, time.Since(start).Seconds())
				if r.sampled != nil {
					o.queued = append(o.queued, ms(r.sampled.Queued))
					o.workers = append(o.workers, float64(r.sampled.Workers))
				}
			}
		}(sess)
	}
	wg.Wait()
	all := &loopOut{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, o := range outs {
		all.attempted += o.attempted
		all.failed += o.failed
		all.completed += o.completed
		all.lat = append(all.lat, o.lat...)
		all.late = append(all.late, o.late...)
		all.done = append(all.done, o.done...)
		all.queued = append(all.queued, o.queued...)
		all.workers = append(all.workers, o.workers...)
	}
	return all, firstErr
}

// sleepUntil blocks until t with a nanosleep system call: the Go
// timer's millisecond wake-up granularity would otherwise dominate the
// sub-millisecond latencies the open loop measures.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an interrupted sleep only makes the send early-late, which is measured
	}
}

// qps is the median over the phase's whole seconds of the requests
// completed in each: a second lost to a neighbour's burst on a shared
// machine moves it less than a mean over the phase would.
func (o *loopOut) qps() float64 {
	n := int(o.elapsed.Seconds())
	if n < 1 {
		return float64(o.completed) / o.elapsed.Seconds()
	}
	per := make([]float64, n)
	for _, t := range o.done {
		if k := int(t); k < n {
			per[k]++
		}
	}
	return median(per)
}

// timedServe is the untraced serve-* run: closed loop for throughput,
// then open loop at the pinned rate for latency.
func timedServe(b *bench, kind serveKind) error {
	var s *served
	err := timeSetup(b, func(i int) (func(), error) {
		var err error
		s, err = setupServe(b, kind, i, nil)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return err
	}
	defer s.close()
	closedD, mixD := b.seconds/10, b.seconds*2/25
	openD := b.seconds - closedD - mixD
	cl, err := s.loop(closedD, 0, nil)
	if err != nil {
		return err
	}
	mixes, mixCPU, err := s.mixPhase(mixD)
	if err != nil {
		return err
	}
	op, err := s.loop(openD, openRate[kind], nil)
	if err != nil {
		return err
	}
	b.attempted += cl.attempted + op.attempted + int64(len(mixes)*len(s.plans))
	b.failed += cl.failed + op.failed
	b.metrics["cpu_ms_per_op"] = ms(cl.cpu) / float64(cl.completed)
	b.metrics["read_cpu_ms"] = ms(mixCPU) / float64(len(mixes))
	b.metrics["space_amp"] = s.space
	fmt.Printf("closed loop: %d sessions, %d requests in %.2fs; open loop: %.0f req/s for %.1fs, generator late p50 %.3f p99 %.3f ms\n",
		sessions, cl.completed, cl.elapsed.Seconds(), openRate[kind], openD.Seconds(), median(op.late), pct(op.late, 99))
	wallf("read_ms", median(mixes), "ms")
	wallf("qps", cl.qps(), "req/s")
	wallf("latency_p50_ms", median(op.lat), "ms")
	wallf("latency_p90_ms", pct(op.lat, 90), "ms")
	wallf("latency_p99_ms", pct(op.lat, 99), "ms")
	fmt.Printf("open loop: %d samples, %d beyond p99\n", len(op.lat), len(op.lat)-int(math.Ceil(float64(len(op.lat))*0.99)))
	return nil
}

// mixPhase runs the whole mix one query after another through the
// in-process Service.Query, repeatedly for d (at least three times),
// and returns each pass's wall time in ms and the process CPU time of
// all the passes: the workload's execution cost under the served
// design, the paper's Fig. 4 quality metric. The server is otherwise
// idle, and a GC before the first pass keeps the loop phase's garbage
// out of the CPU time. The first pass is checked against the reference.
func (s *served) mixPhase(d time.Duration) (wall []float64, cpu time.Duration, err error) {
	ctx := context.Background()
	runtime.GC()
	start, c0 := time.Now(), cpuTime()
	for len(wall) < 3 || time.Since(start) < d {
		t0 := time.Now()
		for q, p := range s.plans {
			resp, err := s.svc.Query(ctx, service.Request{Corpus: corpusName, Tenant: "tenant-0", XPath: p.text})
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", p.text, err)
			}
			if len(wall) == 0 {
				if err := sameResult(p.text, s.want[q], resp.Cols, resp.Rows); err != nil {
					return nil, 0, err
				}
			}
		}
		wall = append(wall, ms(time.Since(t0)))
	}
	return wall, cpuTime() - c0, nil
}

// tracedServe is the traced serve-* pass. It measures untraced and
// traced closed-loop throughput in this process (trace_overhead_frac),
// a short open loop (generator lateness, admission wait), then sends
// the mix one request at a time with spans around every public call:
// the HTTP round trip, the server's handler, the service's and
// executor's own obs spans, and direct parse/translate/plan/prepare
// calls. own is false for a short pass that only fills layers the
// traced workload does not exercise.
func tracedServe(b *bench, kind serveKind, own bool) error {
	d := time.Second
	if own {
		d = b.seconds / 4
	}
	s0, err := setupServe(b, kind, 0, nil)
	if err != nil {
		return err
	}
	cl0, err := s0.loop(d, 0, nil)
	s0.close()
	if err != nil {
		return err
	}

	tr := newTracer()
	o := &obsCfg{tr: tr, oc: newObsClock(tr), reg: obs.NewRegistry()}
	s, err := setupServe(b, kind, 1, o)
	if err != nil {
		return err
	}
	defer s.close()
	setupLayers(b, tr)
	if s.greedy != nil {
		greedyLayers(b, s.greedy, o.oc)
	}
	cl, err := s.loop(d, 0, tr)
	if err != nil {
		return err
	}
	op, err := s.loop(d, openRate[kind], tr)
	if err != nil {
		return err
	}
	b.attempted += cl0.attempted + cl.attempted + op.attempted
	b.failed += cl0.failed + cl.failed + op.failed
	m := b.metrics
	m["trace_overhead_frac"] = 1 - cl.qps()/cl0.qps()
	m["service.admission_wait_p99_ms"] = pct(append(cl.queued, op.queued...), 99)
	m["service.granted_workers"] = mean(append(cl.workers, op.workers...))
	m["loadgen.late_ms_p99"] = pct(op.late, 99)

	// One request at a time: every span nests unambiguously.
	engBuilt, err := s.engineBuilt()
	if err != nil {
		return err
	}
	opt := optimizer.New(stats.FromDatabase(s.db))
	ctx := context.Background()
	for _, p := range s.plans { // warm the direct engine path's plan cache
		if _, err := engBuilt.PreparedContext(ctx, p.plan); err != nil {
			return err
		}
	}
	from := tr.at(time.Now())
	snap0 := o.reg.Snapshot()
	var reqs, respBytes int64
	start := time.Now()
	for i := 0; i < 2*len(s.plans) || time.Since(start) < d; i++ {
		q := i % len(s.plans)
		p := s.plans[q]
		req := tr.request()
		root := tr.begin(req, -1, "request")
		r, err := s.do(ctx, q, i%sessions, true, tr, root)
		if err != nil {
			return err
		}
		b.attempted++
		if !r.ok {
			b.failed++
		}
		reqs++
		respBytes += r.bytes
		if err := directCalls(tr, req, root, s.mapping, s.cfg, opt, engBuilt, p); err != nil {
			return err
		}
		tr.end(root)
	}
	snap1 := o.reg.Snapshot()
	o.oc.importInto(tr, from, map[string][]string{
		"service.query":    {"http.handler"},
		"executor.prepare": {"service.query"},
		"executor.execute": {"service.query"},
	})
	rt := tr.durations("http.roundtrip", from)
	m["http.roundtrip_p50_ms"] = median(rt)
	m["http.roundtrip_p99_ms"] = pct(rt, 99)
	m["http.handler_ms"] = median(tr.selfMS("http.handler", from))
	m["http.response_bytes"] = float64(respBytes) / float64(reqs)
	m["service.query_ms"] = median(tr.durations("service.query", from))
	m["unexplained_frac"] = sum(tr.selfMS("http.roundtrip", from)) / sum(rt)
	execLayers(b, tr.durations("executor.execute", from), snap0, snap1)
	m["service.plan_cache_hit_ratio"] = ratio(snap1["service.plan.hits"], snap1["service.plan.hits"]+snap1["service.plan.misses"])
	m["engine.cache_hit_ratio"] = cacheHitRatio(snap1)
	m["xpath.parse_us"] = median(tr.durations("xpath.parse", from)) * 1e3
	m["translate.translate_us"] = median(tr.durations("translate.translate", from)) * 1e3
	m["optimizer.plan_us"] = median(tr.durations("optimizer.plan", from)) * 1e3
	m["engine.prepare_us"] = median(tr.durations("engine.prepare", from)) * 1e3
	if kind == scan {
		if err := chunkLayers(b, s.store, o.reg); err != nil {
			return err
		}
	}
	share, err := clientShare(s, cl0)
	if err != nil {
		return err
	}
	m["loadgen.client_cpu_share"] = share
	fmt.Printf("%s traced: %d sequential requests; closed loop %.0f req/s traced vs %.0f untraced\n",
		kind, reqs, cl.qps(), cl0.qps())
	return writeTrace(b, kind.String(), tr)
}

// engineBuilt is the Built the direct engine calls of the traced pass
// use: the served one for tuned, a fresh paged view for scan.
func (s *served) engineBuilt() (*engine.Built, error) {
	if s.store != nil {
		return s.store.PagedBuilt()
	}
	return s.built, nil
}

// directCalls times the cache-miss planning path and a cache-hit
// prepare for one query, as children of the request's root span.
func directCalls(tr *tracer, req int64, root int, m *shred.Mapping, cfg *physical.Config, opt *optimizer.Optimizer, built *engine.Built, p planned) error {
	sp := tr.begin(req, root, "xpath.parse")
	q, err := xpath.Parse(p.text)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(req, root, "translate.translate")
	sql, err := translate.Translate(m, q)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(req, root, "optimizer.plan")
	_, err = opt.PlanQuery(sql, cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin(req, root, "engine.prepare")
	_, err = built.PreparedContext(context.Background(), p.plan)
	tr.end(sp)
	return err
}

// execLayers fills the engine metrics from executor spans and the
// registry's engine.exec counters between two snapshots.
func execLayers(b *bench, exec []float64, s0, s1 map[string]float64) {
	m := b.metrics
	n := s1["engine.exec.executions"] - s0["engine.exec.executions"]
	delta := func(k string) float64 { return ratio(s1[k]-s0[k], n) }
	m["engine.execute_p50_ms"] = median(exec)
	m["engine.execute_p99_ms"] = pct(exec, 99)
	m["engine.rows_scanned_per_query"] = delta("engine.exec.rows_scanned")
	m["engine.rows_sought_per_query"] = delta("engine.exec.rows_sought")
	m["engine.rows_out_per_query"] = delta("engine.exec.rows_out")
	m["engine.morsels_per_query"] = delta("engine.exec.morsels")
	hits, faults := s1["storage.pager.hits"]-s0["storage.pager.hits"], s1["storage.pager.faults"]-s0["storage.pager.faults"]
	if hits+faults == 0 {
		return // no paged scans: the pager metrics come from another pass
	}
	m["storage.pager_hit_ratio"] = ratio(hits, hits+faults)
	m["storage.pager_faults_per_query"] = delta("storage.pager.faults")
	m["storage.pager_evictions_per_query"] = delta("storage.pager.evictions")
	m["storage.segment_bytes_read_per_query"] = delta("storage.segment.bytes_read")
}

func cacheHitRatio(snap map[string]float64) float64 {
	var hits, misses float64
	for k, v := range snap {
		if strings.HasPrefix(k, "engine.cache.") {
			if strings.HasSuffix(k, ".hits") {
				hits += v
			} else if strings.HasSuffix(k, ".misses") {
				misses += v
			}
		}
	}
	return ratio(hits, hits+misses)
}

// chunkLayers times ChunkScan.Chunk plus release over every chunk of
// every table, each chunk twice in a row: the pager's fault counter
// tells a fault from a hit.
func chunkLayers(b *bench, st *storage.Store, reg *obs.Registry) error {
	var fault, hit []float64
	for _, e := range st.Manifest().Tables {
		cs, err := st.ChunkScan(e.Name)
		if err != nil {
			return err
		}
		for k := 0; k < cs.NumChunks(); k++ {
			for rep := 0; rep < 2; rep++ {
				f0 := reg.Counter("storage.pager.faults").Value()
				t0 := time.Now()
				_, release, err := cs.Chunk(k)
				if err != nil {
					return err
				}
				release()
				d := ms(time.Since(t0))
				if reg.Counter("storage.pager.faults").Value() > f0 {
					fault = append(fault, d)
				} else {
					hit = append(hit, d)
				}
			}
		}
	}
	b.metrics["storage.chunk_fault_ms"] = median(fault)
	b.metrics["storage.chunk_hit_ms"] = median(hit)
	return nil
}

// clientShare estimates the share of process CPU the load generator
// spends on response bodies: it replays captured bodies through the
// same read-and-discard and sampled-decode paths the loop uses and
// divides their CPU per request by the process CPU per request of the
// untraced closed loop. The transport's CPU, which client and server
// share, is not attributed.
func clientShare(s *served, cl *loopOut) (float64, error) {
	var captured [][]byte
	for q := range s.plans {
		hr, _ := http.NewRequest(http.MethodPost, s.url+"/query", bytes.NewReader(s.bodies[q*sessions]))
		resp, err := s.hc.Do(hr)
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		captured = append(captured, body)
	}
	const rounds = 20
	runtime.GC()
	c0 := cpuTime()
	for r := 0; r < rounds; r++ {
		for _, body := range captured {
			if _, err := decodeBody(body); err != nil {
				return 0, err
			}
		}
	}
	decode := float64(cpuTime()-c0) / float64(rounds*len(captured))
	c0 = cpuTime()
	for r := 0; r < rounds*sampleEvery; r++ {
		for _, body := range captured {
			io.Copy(io.Discard, bytes.NewReader(body)) //nolint:errcheck // in-memory
		}
	}
	drain := float64(cpuTime()-c0) / float64(rounds*sampleEvery*len(captured))
	perReq := float64(cl.cpu) / float64(cl.completed)
	return (decode/sampleEvery + drain*(sampleEvery-1)/sampleEvery) / perReq, nil
}

// setupLayers fills the set-up metrics from set-up spans.
func setupLayers(b *bench, tr *tracer) {
	for name, metric := range map[string]string{
		"shred.shred": "shred.shred_ms", "stats.collect": "stats.collect_ms",
		"engine.build": "engine.build_ms", "storage.open": "storage.open_ms",
	} {
		if d := tr.durations(name, 0); len(d) > 0 {
			b.metrics[metric] = median(d)
		}
	}
}

func writeTrace(b *bench, name string, tr *tracer) error {
	dir := filepath.Join(filepath.Dir(b.dir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.writeJSON(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, b.seed)))
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }
