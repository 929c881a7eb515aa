package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssmem/internal/core"
	"dssmem/internal/service"
	"dssmem/internal/tpch"
)

// The serve-mixed key space: machine × query × procs × trial measurements,
// plus one sweep per machine × query.
var (
	serveMachines = []string{"vclass", "origin"}
	serveProcs    = []int{1, 2, 4, 8}
	serveTrials   = []int{0, 1}
)

const (
	zipfS      = 1.1 // skew of the measure-key popularity
	sweepOneIn = 50  // share of repeat requests that are sweeps
)

type request struct {
	key   string // run identity, also the body-check key
	path  string
	sweep bool
}

// keySpace returns every key in introduction order: each machine × query's
// measurements, then its sweep, whose points other than procs=6 trial 0 are
// then already cached.
func keySpace() []request {
	var keys []request
	for _, m := range serveMachines {
		for _, q := range tpch.AllQueries {
			for _, p := range serveProcs {
				for _, t := range serveTrials {
					keys = append(keys, request{
						key:  fmt.Sprintf("measure/%s/%v/p%d/t%d", m, q, p, t),
						path: fmt.Sprintf("/v1/measure?machine=%s&query=%v&procs=%d&trial=%d", m, q, p, t),
					})
				}
			}
			keys = append(keys, request{
				key:   fmt.Sprintf("sweep/%s/%v", m, q),
				path:  fmt.Sprintf("/v1/sweep?machine=%s&query=%v", m, q),
				sweep: true,
			})
		}
	}
	return keys
}

// requestStream draws n requests from the seed. Each key is first requested
// at an evenly spaced position, in keySpace order, so every pass computes
// the same simulations in the same order whatever the seed: the compute
// cost does not depend on the seed. Between first requests, repeats of keys
// already introduced follow a Zipf law over a seeded popularity order of the
// measure keys, with an occasional uniformly chosen sweep.
func requestStream(seed uint64, n int) []request {
	keys := keySpace()
	n = max(n, len(keys))
	r := rand.New(rand.NewSource(int64(seed)))
	var measure, sweeps []int // indexes into keys
	for i, k := range keys {
		if k.sweep {
			sweeps = append(sweeps, i)
		} else {
			measure = append(measure, i)
		}
	}
	popularity := r.Perm(len(measure))
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(measure)-1))
	introduced := make([]bool, len(keys))
	var out []request
	for next := 0; len(out) < n; {
		if next < len(keys) && len(out) >= next*n/len(keys) {
			introduced[next] = true
			out = append(out, keys[next])
			next++
			continue
		}
		k := measure[popularity[zipf.Uint64()]]
		if r.Intn(sweepOneIn) == 0 {
			k = sweeps[r.Intn(len(sweeps))]
		}
		if introduced[k] {
			out = append(out, keys[k])
		}
	}
	return out
}

// response is one completed request.
type response struct {
	req     request
	status  int
	cache   string // X-Cache
	latency time.Duration
	body    []byte
	err     error
}

// server is an in-process service on a loopback listener.
type server struct {
	svc    *service.Server
	http   *http.Server
	served chan error
	base   string
	dir    string
	client *http.Client
}

func startServer(o options) (*server, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Preset: o.servePreset, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the listener, waits for Serve to return, aborts any run left
// and removes the cache directory.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *server) get(path, id string) response {
	var r response
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		r.err = err
		return r
	}
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(start)
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	return r
}

// servePass is one pass of the request stream against a fresh server.
type servePass struct {
	setup, wall time.Duration
	resps       []response
	metrics     map[string]float64 // /metrics scrape (traced passes only)
}

func (o options) servePass(i int, stream []request, spans *spanLog) (servePass, error) {
	var p servePass
	t0 := time.Now()
	srv, err := startServer(o)
	if err != nil {
		return p, err
	}
	p.setup = time.Since(t0)

	passID, endPass := spans.begin("client", fmt.Sprintf("serve-mixed pass %d", i), 0, nil)
	p.resps = make([]response, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(stream) {
					return
				}
				var id string
				if spans != nil {
					id = fmt.Sprintf("pb-%d-%d", i, j)
				}
				_, end := spans.begin("service", stream[j].path, passID, map[string]any{"request_id": id})
				r := srv.get(stream[j].path, id)
				end()
				r.req = stream[j]
				p.resps[j] = r
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	endPass()
	if spans != nil {
		p.metrics, err = scrape(srv)
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return p, err
}

// scrape reads the server's /metrics into series -> value.
func scrape(s *server) (map[string]float64, error) {
	r := s.get("/metrics", "")
	if r.err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d: %v", r.status, r.err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("scraping /metrics: bad line %q", line)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// simulated returns the distinct simulations a pass's bodies describe, by
// machine/query/procs/trial. Sweep points are trial 0.
func simulated(resps []response) (map[string]core.Measurement, error) {
	out := map[string]core.Measurement{}
	add := func(m core.Measurement, trial int) {
		out[fmt.Sprintf("%s/%s/p%d/t%d", m.Machine, m.Query, m.Processes, trial)] = m
	}
	for _, r := range resps {
		if r.status != http.StatusOK {
			continue
		}
		if r.req.sweep {
			var s core.Series
			if err := json.Unmarshal(r.body, &s); err != nil {
				return nil, fmt.Errorf("%s: %w", r.req.path, err)
			}
			for _, pt := range s.Points {
				add(pt, 0)
			}
			continue
		}
		var b struct {
			Measurement core.Measurement `json:"measurement"`
		}
		if err := json.Unmarshal(r.body, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", r.req.path, err)
		}
		trial, _ := strconv.Atoi(r.req.key[strings.LastIndexByte(r.req.key, 't')+1:])
		add(b.Measurement, trial)
	}
	return out, nil
}

// simTotals are simulated counts summed over served measurements. A body
// carries per-process means, so totals are means times processes, and the
// reference count is derived as misses / miss rate.
type simTotals struct {
	refs, instr, cycles, l1, l2, backoffs float64
}

func totals(sims map[string]core.Measurement) simTotals {
	var t simTotals
	for _, m := range sims {
		n := float64(m.Processes)
		if m.L1MissRate > 0 {
			t.refs += m.L1Misses / m.L1MissRate * n
		}
		t.instr += m.Instructions * n
		t.cycles += m.ThreadCycles * n
		t.l1 += m.L1Misses * n
		t.l2 += m.L2Misses * n
		t.backoffs += m.LockBackoffs * n
	}
	return t
}

// measurementDigest hashes the served measurements in key order.
func measurementDigest(sims map[string]core.Measurement) (string, error) {
	keys := make([]string, 0, len(sims))
	for k := range sims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		b, err := json.Marshal(sims[k])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s=%s\n", k, b)
	}
	return fmt.Sprintf("measurements=%d %x", len(keys), h.Sum(nil)), nil
}

func runServe(o options, out io.Writer) (*outcome, error) {
	stream := requestStream(o.seed, o.requests)
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	res := &outcome{metrics: metrics{}}
	first := map[string][]byte{} // key + X-Cache -> first body served
	var sims map[string]core.Measurement
	var digest string
	var hitMS, missMS []float64
	var all, traced []servePass // responses dropped once checked
	var untracedWall []float64
	rss, err := passes(o, func(i int) error {
		var log *spanLog
		if o.trace && i%2 == 1 {
			log = spans
		}
		p, err := o.servePass(i, stream, log)
		if err != nil {
			return err
		}
		for _, r := range p.resps {
			res.attempted++
			ref := r.req.key + " " + r.cache
			switch {
			case r.err != nil || r.status != http.StatusOK:
				fmt.Fprintf(out, "pass %d: %s: status %d: %v\n", i, r.req.path, r.status, r.err)
				res.failed++
				continue
			case first[ref] == nil:
				first[ref] = r.body
			case !bytes.Equal(first[ref], r.body):
				fmt.Fprintf(out, "pass %d: %s: %s body differs from the first one served\n", i, r.req.path, r.cache)
				res.failed++
			}
			if !r.req.sweep {
				if r.cache == "hit" {
					hitMS = append(hitMS, ms(r.latency))
				} else {
					missMS = append(missMS, ms(r.latency))
				}
			}
		}
		// Bodies are checked byte for byte above; this also checks that
		// every pass served the same set of simulations.
		got, err := simulated(p.resps)
		if err != nil {
			return err
		}
		d, err := measurementDigest(got)
		if err != nil {
			return err
		}
		if i == 0 {
			sims, digest = got, d
		} else if d != digest {
			fmt.Fprintf(out, "pass %d: served simulations %s, first pass %s\n", i, d, digest)
			res.failed++
		}
		fmt.Fprintf(out, "pass %d traced=%v: setup %.2f ms, wall %.3f s\n", i, log != nil, ms(p.setup), p.wall.Seconds())
		p.resps = nil
		all = append(all, p)
		if log != nil {
			traced = append(traced, p)
		} else {
			untracedWall = append(untracedWall, p.wall.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := totals(sims)
	fmt.Fprintf(out, "workload serve-mixed preset=%s seed=%d requests=%d passes=%d simulations=%d\n",
		o.servePreset.Name, o.seed, len(stream), len(all), len(sims))
	fmt.Fprintf(out, "sim_digest %s\n", digest)
	fmt.Fprintf(out, "samples: %d measure hits, %d measure misses\n", len(hitMS), len(missMS))

	if !o.trace {
		var setup, wall, rps, refsPerS []float64
		for _, p := range all {
			setup = append(setup, p.setup.Seconds())
			wall = append(wall, p.wall.Seconds())
			rps = append(rps, float64(len(stream))/p.wall.Seconds())
			refsPerS = append(refsPerS, total.refs/p.wall.Seconds())
		}
		m := res.metrics
		m.set("wall_s", median(wall), "s")
		m.set("setup_s", median(setup), "s")
		m.set("refs_per_host_s", median(refsPerS), "1/s")
		m.set("req_per_s", median(rps), "1/s")
		m.set("peak_rss_mb", median(rss), "MB")
		return res, nil
	}

	m := res.metrics
	m.set("hit_p50_ms", median(hitMS), "ms")
	m.set("hit_p99_ms", quantile(hitMS, 0.99), "ms")
	m.set("miss_p50_ms", median(missMS), "ms")
	var tracedWall []float64
	scraped := map[string]float64{}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
		for k, v := range p.metrics {
			scraped[k] += v
		}
	}
	setTraceOverhead(m, untracedWall, tracedWall)
	setServiceMetrics(m, scraped, len(sims)*len(traced))
	m.set("sim.refs", total.refs, "count")
	m.set("sim.instr", total.instr, "count")
	m.set("sim.cycles", total.cycles, "count")
	m.set("cache.l1_misses", total.l1, "count")
	m.set("cache.l2_misses", total.l2, "count")
	m.set("lock.backoffs", total.backoffs, "count")
	// The bodies carry no directory, lock-acquire, switch or sampling counts.
	for _, n := range []string{"coherence.dir_txns", "coherence.interventions", "lock.acquires",
		"simos.vol_switches", "simos.invol_switches", "obs.ff_accesses"} {
		m.set(n, 0, "count")
	}
	m.set("obs.memlat_ci95_rel", 0, "ratio")
	m.set("obs.detailed_instr_frac", 1, "ratio")
	// Runs go through the service's own runner, not the benchmark's, so
	// per-run times and allocations are not seen here; core use comes from
	// the service's run-time histogram.
	m.set("run.ms.p50", 0, "ms")
	m.set("run.ms.max", 0, "ms")
	m.set("run.allocs", 0, "count")
	var wall float64
	for _, w := range tracedWall {
		wall += w
	}
	m.set("experiments.core_util", scraped["dssmem_run_seconds_sum"]/(wall*float64(runtime.GOMAXPROCS(0))), "ratio")

	if err := ledger(m, o.servePreset, tpch.Generate(o.servePreset.SF, o.servePreset.Seed), spans); err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "per-layer spans:")
	spans.writeTable(out)
	if err := spans.writeChrome(o.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", o.spans)
	return res, nil
}

// servicePhases are the request-time phases the service's /metrics reports.
var servicePhases = []string{"queue", "cache_mem", "cache_disk", "compute", "encode"}

// setServiceMetrics derives the service-layer metrics from summed /metrics
// scrapes: mean milliseconds per request that entered each phase, the
// result-cache hit ratio, simulations per distinct key and shed runs.
func setServiceMetrics(m metrics, s map[string]float64, keys int) {
	for _, ph := range servicePhases {
		series := fmt.Sprintf(`dssmem_phase_seconds_%%s{phase=%q}`, ph)
		v := 0.0
		if n := s[fmt.Sprintf(series, "count")]; n > 0 {
			v = 1000 * s[fmt.Sprintf(series, "sum")] / n
		}
		m.set("service.phase_ms."+ph, v, "ms")
	}
	hits := s[`dssmem_cache_hits_total{tier="mem"}`] + s[`dssmem_cache_hits_total{tier="disk"}`]
	ratio := 0.0
	if lookups := hits + s["dssmem_cache_misses_total"]; lookups > 0 {
		ratio = hits / lookups
	}
	m.set("rescache.hit_ratio", ratio, "ratio")
	perKey := 0.0
	if keys > 0 {
		perKey = s["dssmem_runs_total"] / float64(keys)
	}
	m.set("service.runs_per_key", perKey, "ratio")
	m.set("service.shed", s["dssmem_runs_shed_total"], "count")
}

// setServiceZero reports the service-layer metrics on a workload that does
// not use the service.
func setServiceZero(m metrics) {
	setServiceMetrics(m, nil, 0)
	m.set("hit_p50_ms", 0, "ms")
	m.set("hit_p99_ms", 0, "ms")
}
