package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"dssmem/internal/client"
	"dssmem/internal/experiments"
	"dssmem/internal/job"
	"dssmem/internal/machine"
	"dssmem/internal/rescache"
	"dssmem/internal/service"
	"dssmem/internal/telemetry"
	"dssmem/internal/tpch"
	"dssmem/internal/workload"
)

// ---- fan-out core ----

type fetchResult struct {
	resp *client.Response
	name string
	err  error
}

// raceFetch resolves one fanned-out worker call with verification, failover
// and work stealing, over the current membership snapshot. The call goes to
// the key's ring owner first. If that attempt fails outright (transport
// error, 5xx after the per-worker client's retries) it fails over to the
// next routable worker on the ring immediately; if it is merely slow — no
// answer within StealAfter — the same call is re-issued to the next worker
// while the original keeps running, and the first verified answer wins.
// Stealing is safe because every call is a pure function of its path,
// addressed by content digest: a duplicate execution produces the same
// bytes, and the loser's result is simply discarded.
//
// Every response's X-Digest is checked against want — the coordinator's own
// computation of the content address. A mismatch means the worker is
// misconfigured (wrong preset, wrong version) and is treated as a failure of
// that worker, never served. Returns the winning worker's name alongside the
// response, so callers can queue hints for a down home owner.
func (c *Coordinator) raceFetch(ctx context.Context, key, path string, want rescache.Digest) (*client.Response, string, error) {
	v := c.mem.snapshot()
	if v == nil || v.ring == nil {
		return nil, "", errNoWorkers
	}
	seq := v.ring.Seq(key)
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel() // releases the losers once a winner returns
	results := make(chan fetchResult, len(seq))

	launched, outstanding := 0, 0
	launch := func() {
		wi := seq[launched]
		launched++
		outstanding++
		name, cl := v.names[wi], v.clients[wi]
		go func() {
			resp, err := cl.Get(fanCtx, path)
			if err == nil {
				if got := resp.Header.Get("X-Digest"); got != string(want) {
					c.workerCalls.With(name, "mismatch").Inc()
					c.mismatches.Inc()
					resp, err = nil, fmt.Errorf("fleet: worker %s answered %s with digest %q, want %q (preset or version skew)",
						name, path, got, want)
				} else {
					c.workerCalls.With(name, "ok").Inc()
				}
			} else if !errors.Is(err, context.Canceled) {
				c.workerCalls.With(name, "error").Inc()
			}
			results <- fetchResult{resp, name, err}
		}()
	}
	launch()

	var stealC <-chan time.Time
	var timer *time.Timer
	if c.cfg.StealAfter > 0 {
		timer = time.NewTimer(c.cfg.StealAfter)
		defer timer.Stop()
		stealC = timer.C
	}

	var lastErr error
	for {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				return r.resp, r.name, nil
			}
			if lastErr == nil || !errors.Is(r.err, context.Canceled) {
				lastErr = r.err
			}
			// A worker's definitive non-retriable verdict (bad request,
			// unknown figure) is the same on every worker — the parameters,
			// not the worker, are at fault. Don't burn the rest of the ring.
			var ae *client.APIError
			if errors.As(r.err, &ae) && ae.Status < 500 && ae.Status != http.StatusTooManyRequests {
				return nil, "", r.err
			}
			if launched < len(seq) {
				c.failovers.Inc()
				launch()
			} else if outstanding == 0 {
				return nil, "", lastErr
			}
		case <-stealC:
			if launched < len(seq) {
				c.steals.Inc()
				launch()
			}
			timer.Reset(c.cfg.StealAfter)
		case <-ctx.Done():
			return nil, "", fmt.Errorf("fleet: %w", context.Cause(ctx))
		}
	}
}

// fanout is the cache-or-fetch cycle every API handler runs: coordinator
// cache first (memory-only, with singleflight — a thundering herd on one
// digest costs one fan-out), then raceFetch, with extract (when non-nil)
// reducing the worker's body to the cacheable value. A result served by a
// non-owner while the owner is down is queued as a hint for replay.
func (c *Coordinator) fanout(ctx context.Context, ns string, dig rescache.Digest, path string, extract func([]byte) ([]byte, error)) ([]byte, bool, error) {
	fetch := func(runCtx context.Context) ([]byte, error) {
		defer telemetry.FromContext(runCtx).StartPhase(PhaseFanout)()
		resp, servedBy, err := c.raceFetch(runCtx, string(dig), path, dig)
		if err != nil {
			return nil, err
		}
		body := resp.Body
		if extract != nil {
			if body, err = extract(body); err != nil {
				return nil, err
			}
		}
		c.maybeHint(ns, dig, body, servedBy)
		return body, nil
	}
	if c.cfg.DisableCache {
		v, err := fetch(ctx)
		return v, false, err
	}
	return c.store.Do(ctx, ns, dig, fetch)
}

// extractMeasurement pulls the measurement object out of a worker's
// /v1/measure body. The coordinator caches (and re-serves) only this part:
// the wrapper's "cache" word describes the worker's cache at one instant and
// must not be frozen into the coordinator's cache.
func extractMeasurement(body []byte) (json.RawMessage, error) {
	var wrap struct {
		Measurement json.RawMessage `json:"measurement"`
	}
	if err := json.Unmarshal(body, &wrap); err != nil {
		return nil, fmt.Errorf("fleet: undecodable worker measure response: %w", err)
	}
	if len(wrap.Measurement) == 0 {
		return nil, errors.New("fleet: worker measure response has no measurement")
	}
	return wrap.Measurement, nil
}

// ---- API handlers ----

func (c *Coordinator) handleMeasure(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	spec, err := service.ParseMachine(qp.Get("machine"), qp.Get("cpus"), c.cfg.Preset.MemScale)
	if err != nil {
		c.fail(w, http.StatusBadRequest, false, 0, err)
		return
	}
	q, err := service.ParseQuery(qp.Get("query"))
	if err != nil {
		c.fail(w, http.StatusBadRequest, false, 0, err)
		return
	}
	procs, err := parseIntDefault(qp.Get("procs"), 1)
	if err != nil || procs < 1 {
		c.fail(w, http.StatusBadRequest, false, 0, fmt.Errorf("bad procs %q", qp.Get("procs")))
		return
	}
	trial, err := parseIntDefault(qp.Get("trial"), 0)
	if err != nil {
		c.fail(w, http.StatusBadRequest, false, 0, fmt.Errorf("bad trial %q", qp.Get("trial")))
		return
	}
	opts := workload.Options{Spec: spec, Trial: trial, ColdRun: boolParam(qp.Get("cold"))}
	dig := service.MeasureDigest(c.cfg.Preset, q, procs, opts)

	// The original query string is forwarded verbatim: workers parse it with
	// the same code that fed the digest above, so the worker's X-Digest must
	// agree or raceFetch rejects the answer.
	meas, hit, err := c.fanout(r.Context(), rescache.NSMeasurement, dig, "/v1/measure?"+r.URL.RawQuery,
		func(body []byte) ([]byte, error) { return extractMeasurement(body) })
	if err != nil {
		c.failFetch(w, err)
		return
	}
	body, err := json.Marshal(struct {
		Digest      string          `json:"digest"`
		Cache       string          `json:"cache"`
		Measurement json.RawMessage `json:"measurement"`
	}{string(dig), cacheWord(hit), meas})
	if err != nil {
		c.fail(w, http.StatusInternalServerError, false, 0, err)
		return
	}
	c.respondRaw(w, r, hit, dig, body)
}

func (c *Coordinator) handleFigure(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		c.fail(w, http.StatusBadRequest, false, 0, fmt.Errorf("bad figure id %q", r.PathValue("id")))
		return
	}
	dig, err := service.FigureDigest(c.cfg.Preset, id)
	if err != nil {
		c.fail(w, http.StatusInternalServerError, false, 0, err)
		return
	}
	// A figure is one indivisible computation; it routes whole to the
	// digest's owner and the body is cached and re-served verbatim.
	raw, hit, err := c.fanout(r.Context(), rescache.NSFigure, dig, "/v1/figure/"+strconv.Itoa(id), nil)
	if err != nil {
		c.failFetch(w, err)
		return
	}
	c.respondRaw(w, r, hit, dig, raw)
}

func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	spec, q, dig, err := c.parseSweep(qp)
	if err != nil {
		c.fail(w, http.StatusBadRequest, false, 0, err)
		return
	}

	// The sweep is a durable job from here on: the journal records its
	// identity and every completed point, so a coordinator killed mid-sweep
	// resumes it on restart. Reattaching callers find it under X-Job-ID.
	j, _, jerr := c.jobs.Start(string(dig), "sweep", "/v1/sweep?"+r.URL.RawQuery, len(experiments.ProcCounts))
	if jerr == nil {
		w.Header().Set("X-Job-ID", string(dig))
	}

	raw, hit, err := c.runSweep(r.Context(), qp, spec, q, dig, j)
	if err != nil {
		if j != nil {
			j.Fail(err)
		}
		c.failFetch(w, err)
		return
	}
	if j != nil {
		j.Done()
	}
	c.respondRaw(w, r, hit, dig, raw)
}

// parseSweep resolves a sweep's query parameters to its machine spec, query
// and content digest — shared by the live handler, the job lookup endpoint,
// and the restart resume loop.
func (c *Coordinator) parseSweep(qp url.Values) (machine.Spec, tpch.QueryID, rescache.Digest, error) {
	spec, err := service.ParseMachine(qp.Get("machine"), qp.Get("cpus"), c.cfg.Preset.MemScale)
	if err != nil {
		return machine.Spec{}, 0, "", err
	}
	q, err := service.ParseQuery(qp.Get("query"))
	if err != nil {
		return machine.Spec{}, 0, "", err
	}
	dig, err := service.SweepDigest(c.cfg.Preset, spec, q)
	if err != nil {
		return machine.Spec{}, 0, "", err
	}
	return spec, q, dig, nil
}

// runSweep is where sharding earns its keep: each process-count point is an
// independent measurement with its own content digest and its own home
// worker, so the curve's points compute on different machines in parallel.
// The coordinator reassembles them in ProcCounts order into a struct shaped
// exactly like core.Series (same field order, no tags), so the merged body
// is byte-identical to a single node's — the simulations are deterministic
// and JSON re-encoding is stable, so the splice is invisible to clients.
// Each completed point is journaled on j before the sweep is assembled.
func (c *Coordinator) runSweep(ctx context.Context, qp url.Values, spec machine.Spec, q tpch.QueryID, dig rescache.Digest, j *job.Job) ([]byte, bool, error) {
	fetch := func(runCtx context.Context) ([]byte, error) {
		defer telemetry.FromContext(runCtx).StartPhase(PhaseFanout)()
		points := make([]json.RawMessage, len(experiments.ProcCounts))
		errs := make([]error, len(experiments.ProcCounts))
		var wg sync.WaitGroup
		for i, n := range experiments.ProcCounts {
			pdig := service.MeasureDigest(c.cfg.Preset, q, n, workload.Options{Spec: spec})
			vals := url.Values{}
			for _, p := range []string{"machine", "cpus", "query"} {
				if v := qp.Get(p); v != "" {
					vals.Set(p, v)
				}
			}
			vals.Set("procs", strconv.Itoa(n))
			path := "/v1/measure?" + vals.Encode()
			wg.Add(1)
			go func(i int, path string, pdig rescache.Digest) {
				defer wg.Done()
				resp, servedBy, err := c.raceFetch(runCtx, string(pdig), path, pdig)
				if err != nil {
					errs[i] = err
					return
				}
				c.sweepPoints.With(resp.Header.Get("X-Cache")).Inc()
				points[i], errs[i] = extractMeasurement(resp.Body)
				if errs[i] != nil {
					return
				}
				if !c.cfg.DisableCache {
					// Seed the per-point cache too: a later /v1/measure for
					// this exact point is answered locally.
					c.store.Put(rescache.NSMeasurement, pdig, points[i])
				}
				c.maybeHint(rescache.NSMeasurement, pdig, points[i], servedBy)
				if j != nil {
					j.Point(i, string(pdig))
				}
			}(i, path, pdig)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return json.Marshal(struct {
			Machine string
			Query   string
			Points  []json.RawMessage
		}{spec.Name, q.String(), points})
	}

	if c.cfg.DisableCache {
		raw, err := fetch(ctx)
		return raw, false, err
	}
	return c.store.Do(ctx, rescache.NSSweep, dig, fetch)
}

// ---- durable job resume ----

// resumeUnfinished launches the background resume of every journaled job
// still running after a restart. Completed points come back from the
// workers' caches, so a resume recomputes nothing that finished before the
// kill.
func (c *Coordinator) resumeUnfinished() {
	var unfinished []*job.Job
	for _, j := range c.jobs.Jobs() {
		if j.State() == job.StateRunning {
			unfinished = append(unfinished, j)
		}
	}
	if len(unfinished) == 0 {
		return
	}
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		for _, j := range unfinished {
			c.resumeJob(j)
		}
	}()
}

// resumeJob re-runs one journaled sweep, waiting out an unconverged fleet:
// right after a restart the workers may not have joined yet, so retriable
// failures back off and try again until the fleet can answer.
func (c *Coordinator) resumeJob(j *job.Job) {
	u, err := url.Parse(j.Path())
	if err != nil {
		j.Fail(fmt.Errorf("fleet: resume: unparseable job path %q: %w", j.Path(), err))
		return
	}
	qp := u.Query()
	spec, q, dig, err := c.parseSweep(qp)
	if err != nil || string(dig) != j.ID() {
		if err == nil {
			err = fmt.Errorf("fleet: resume: job %s path resolves to digest %s (preset or version skew)", j.ID(), dig.Short())
		}
		j.Fail(err)
		return
	}
	backoff := 200 * time.Millisecond
	for attempt := 0; attempt < 100; attempt++ {
		if c.baseCtx.Err() != nil {
			return
		}
		_, _, err = c.runSweep(c.baseCtx, qp, spec, q, dig, j)
		if err == nil {
			j.Done()
			c.jobsResumed.Inc()
			if c.cfg.Log != nil {
				c.cfg.Log.Info("resumed job", "job", j.ID(), "kind", "sweep", "query", u.RawQuery)
			}
			return
		}
		select {
		case <-c.baseCtx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
	j.Fail(fmt.Errorf("fleet: resume gave up: %w", err))
}

// ---- membership + job endpoints ----

// handleJoin admits or heartbeats a member. A new name registers as probing
// and is verified by an immediate half-open probe — a worker is routable
// when the coordinator has seen it answer, not merely heard it claim to be
// alive. A known member's heartbeat refreshes an active member, or kicks an
// ejected one into its re-admission probe.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
		writeJSONErr(w, http.StatusBadRequest, false, fmt.Errorf("fleet: bad join body: %w", err))
		return
	}
	req.Name = strings.TrimSpace(req.Name)
	u, err := url.Parse(req.URL)
	if req.Name == "" || err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeJSONErr(w, http.StatusBadRequest, false,
			fmt.Errorf("fleet: join needs a name and an http[s] URL, got name=%q url=%q", req.Name, req.URL))
		return
	}
	wk := Worker{Name: req.Name, URL: strings.TrimRight(req.URL, "/")}

	created, _, err := c.mem.add(wk, MemberProbing)
	if err != nil {
		writeJSONErr(w, http.StatusBadRequest, false, err)
		return
	}
	if created {
		c.joins.Inc()
		c.asyncProbe(wk.Name)
	} else {
		c.heartbeats.Inc()
		if err := c.mem.setURL(wk.Name, wk.URL); err != nil {
			writeJSONErr(w, http.StatusBadRequest, false, err)
			return
		}
		switch c.mem.state(wk.Name) {
		case MemberActive:
			c.mem.observe(wk.Name, true, c.cfg.EjectAfter)
		case MemberEjected:
			// Half-open: the heartbeat alone does not re-admit; a probe must
			// see the worker answer first.
			c.mem.transition(wk.Name, MemberProbing)
			c.asyncProbe(wk.Name)
		case MemberPending:
			c.asyncProbe(wk.Name)
		case MemberProbing:
			// probe already in flight
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status    string  `json:"status"`
		State     string  `json:"state"`
		Heartbeat float64 `json:"heartbeat_seconds"`
	}{"accepted", c.mem.state(wk.Name).String(), c.cfg.Heartbeat.Seconds()})
}

func (c *Coordinator) asyncProbe(name string) {
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		c.probeMember(name)
	}()
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := c.jobs.Jobs()
	snaps := make([]job.Snapshot, len(jobs))
	for i, j := range jobs {
		snaps[i] = j.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Jobs []job.Snapshot `json:"jobs"`
	}{snaps})
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	j := c.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeJSONErr(w, http.StatusNotFound, false, fmt.Errorf("fleet: unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Snapshot())
}

// handleJobLookup finds the sweep job for a set of sweep parameters — the
// reattach path for a client that lost the response (and its X-Job-ID
// header) to a coordinator crash.
func (c *Coordinator) handleJobLookup(w http.ResponseWriter, r *http.Request) {
	_, _, dig, err := c.parseSweep(r.URL.Query())
	if err != nil {
		writeJSONErr(w, http.StatusBadRequest, false, err)
		return
	}
	j := c.jobs.Get(string(dig))
	if j == nil {
		writeJSONErr(w, http.StatusNotFound, false, fmt.Errorf("fleet: no job for sweep %s", dig.Short()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.Snapshot())
}

// writeJSONErr is the control-plane error writer: same body shape as fail,
// without touching the API request counters (these endpoints are not
// instrumented).
func writeJSONErr(w http.ResponseWriter, status int, retriable bool, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error     string `json:"error"`
		Retriable bool   `json:"retriable"`
		Status    int    `json:"status"`
	}{err.Error(), retriable, status})
}

// ---- anti-entropy repair ----

// repairLoop runs the digest-comparison pass every RepairInterval.
func (c *Coordinator) repairLoop() {
	defer c.bg.Done()
	t := time.NewTicker(c.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			c.repairPass(c.baseCtx)
		}
	}
}

// maxRepairsPerPass bounds one pass's copy work so a freshly rejoined
// worker's backlog spreads over several intervals instead of one burst.
const maxRepairsPerPass = 256

// repairPass compares digest listings across active members and copies every
// entry held by a non-owner but missing at its active home owner: fetch the
// framed entry from a holder, verify it, PUT it to the owner. This is the
// backstop behind hinted handoff — it heals entries the hint queue dropped,
// results that predate a membership change, and anything stolen onto the
// wrong worker. Returns how many entries were copied.
func (c *Coordinator) repairPass(ctx context.Context) int {
	v := c.mem.snapshot()
	type peer struct {
		name string
		url  string
		cl   *client.Client
	}
	var actives []peer
	for _, mi := range c.mem.list() {
		if mi.State == MemberActive {
			actives = append(actives, peer{mi.Worker.Name, mi.Worker.URL, mi.Client})
		}
	}
	if len(actives) < 2 {
		return 0 // nothing to compare against
	}
	repaired := 0
	for _, ns := range rescache.Namespaces {
		holds := make(map[string]map[string]bool, len(actives)) // member -> digest set
		var order []string                                      // digests in first-seen order
		holder := make(map[string]peer)                         // digest -> one member holding it
		for _, p := range actives {
			resp, err := p.cl.Get(ctx, "/v1/cache/"+ns)
			if err != nil {
				c.repairErrs.Inc()
				continue
			}
			var listing struct {
				Digests []string `json:"digests"`
			}
			if err := json.Unmarshal(resp.Body, &listing); err != nil {
				c.repairErrs.Inc()
				continue
			}
			set := make(map[string]bool, len(listing.Digests))
			for _, d := range listing.Digests {
				set[d] = true
				if _, seen := holder[d]; !seen {
					holder[d] = p
					order = append(order, d)
				}
			}
			holds[p.name] = set
		}
		for _, d := range order {
			if repaired >= maxRepairsPerPass || ctx.Err() != nil {
				return repaired
			}
			owner, ok := v.homeOwner(d)
			if !ok || c.mem.state(owner) != MemberActive {
				continue
			}
			if holds[owner] == nil || holds[owner][d] {
				continue // owner holds it (or its listing failed: skip, next pass)
			}
			src := holder[d]
			if src.name == owner {
				continue
			}
			resp, err := src.cl.Get(ctx, "/v1/cache/"+ns+"/"+d)
			if err != nil {
				c.repairErrs.Inc()
				continue
			}
			payload, err := rescache.UnframeEntry(resp.Body)
			if err != nil {
				c.repairErrs.Inc()
				continue
			}
			ownerInfo, ok := c.memberByName(owner)
			if !ok {
				continue
			}
			if err := putEntry(ctx, c.scrape, ownerInfo.Worker.URL, ns, rescache.Digest(d), payload); err != nil {
				c.repairErrs.Inc()
				continue
			}
			repaired++
			c.repairs.Inc()
		}
	}
	return repaired
}

// ---- health and metrics aggregation ----

type workerHealth struct {
	Name   string `json:"name"`
	State  string `json:"state"`  // membership: active | pending | probing | ejected
	Status string `json:"status"` // this scrape: ok | degraded | down
	Error  string `json:"error,omitempty"`
}

// handleHealthz aggregates the fleet's health and doubles as a pull
// observation round: every member is scraped, the results feed the
// membership state machine (so a restarted worker re-admits on the next
// health check, without waiting for the ticker), and the verdict reflects
// the post-observation states. "ok" means every member answers healthy;
// "degraded" means the fleet serves but is not converged — a member is
// still booting (pending, never seen), mid-probe, reporting a degraded
// store, or the fleet is empty; "partial" means a member that had been
// alive is unreachable or ejected (its keyspace fails over). Always 200: a
// coordinator with a degraded fleet is serving, not dead.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	members := c.mem.list()
	type scraped struct {
		i    int
		body []byte
		err  error
	}
	ch := make(chan scraped, len(members))
	for i := range members {
		go func(i int) {
			b, err := c.scrapeURL(r.Context(), members[i].Worker, "/healthz")
			ch <- scraped{i, b, err}
		}(i)
	}
	results := make([]scraped, len(members))
	for range members {
		s := <-ch
		results[s.i] = s
	}
	// Feed observations first: state below reflects this scrape.
	for i, mi := range members {
		c.mem.observe(mi.Worker.Name, results[i].err == nil, c.cfg.EjectAfter)
	}

	status := "ok"
	if len(members) == 0 {
		status = "degraded" // an empty fleet is still converging
	}
	health := make([]workerHealth, len(members))
	for i, mi := range members {
		name := mi.Worker.Name
		state := c.mem.state(name)
		s := results[i]
		h := workerHealth{Name: name, State: state.String(), Status: "ok"}
		if s.err == nil {
			var wh struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(s.body, &wh); err != nil {
				s.err = fmt.Errorf("fleet: %s: undecodable healthz: %w", name, err)
			} else if wh.Status != "ok" {
				h.Status = wh.Status
				status = worseStatus(status, "degraded")
			}
		}
		if s.err != nil {
			h.Status = "down"
			h.Error = s.err.Error()
			c.scrapeErrs.With(name).Inc()
			c.workerUp.With(name).Set(0)
			if state == MemberPending && mi.LastSeen.IsZero() {
				// Never seen: the fleet is still starting, not broken.
				status = worseStatus(status, "degraded")
			} else {
				status = worseStatus(status, "partial")
			}
		} else {
			c.workerUp.With(name).Set(1)
		}
		health[i] = h
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status  string         `json:"status"`
		Role    string         `json:"role"`
		Preset  string         `json:"preset"`
		Workers []workerHealth `json:"workers"`
		UptimeS int64          `json:"uptime_seconds"`
	}{status, "coordinator", c.cfg.Preset.Name, health, int64(time.Since(c.start).Seconds())})
}

// worseStatus ranks fleet health verdicts: ok < degraded < partial.
func worseStatus(a, b string) string {
	rank := map[string]int{"ok": 0, "degraded": 1, "partial": 2}
	if rank[b] > rank[a] {
		return b
	}
	return a
}

// handleMetrics serves the fleet rollup: the coordinator's own families
// (dssmem_fleet_*) followed by every reachable member's families with a
// `worker` label injected — worker families keep their dssmem_* names, so
// the two namespaces never collide and the merged page stays lint-clean.
// An unreachable worker's series are absent (and counted), never fabricated.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	members := c.mem.list()
	type scraped struct {
		i    int
		body []byte
		err  error
	}
	ch := make(chan scraped, len(members))
	for i := range members {
		go func(i int) {
			b, err := c.scrapeURL(r.Context(), members[i].Worker, "/metrics")
			ch <- scraped{i, b, err}
		}(i)
	}
	bodies := make([][]byte, len(members))
	for range members {
		s := <-ch
		if s.err != nil {
			c.scrapeErrs.With(members[s.i].Worker.Name).Inc()
			continue
		}
		bodies[s.i] = s.body
	}
	srcs := make([]telemetry.Exposition, 0, len(members))
	for i, b := range bodies { // registration order, not arrival order
		if b != nil {
			srcs = append(srcs, telemetry.Exposition{Source: members[i].Worker.Name, Text: string(b)})
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.reg.WriteText(w)
	if err := telemetry.MergeExpositions(w, "worker", srcs); err != nil && c.cfg.Log != nil {
		c.cfg.Log.Error("metrics rollup failed", "err", err)
	}
}

// scrapeURL fetches one worker-local endpoint within ScrapeTimeout.
func (c *Coordinator) scrapeURL(ctx context.Context, wk Worker, path string) ([]byte, error) {
	sctx, cancel := context.WithTimeout(ctx, c.cfg.ScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, wk.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.scrape.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: scraping %s%s: %w", wk.Name, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("fleet: scraping %s%s: %w", wk.Name, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: scraping %s%s: HTTP %d", wk.Name, path, resp.StatusCode)
	}
	return b, nil
}

// ---- worker-side peer fill ----

// NewPeerFetch builds the worker-side peer-fill tier for rescache: on a full
// local miss, ask the fleet peers holding the digest's neighborhood (ring
// order, up to maxTries peers) for the entry before recomputing. The peers
// answer from their local tiers only — /v1/cache never computes — so the
// worst case is maxTries cheap 404s, and the fetched bytes arrive in the
// checksummed frame and are verified before use. maxTries 0 means 2: the
// home worker plus one successor covers both steady state and one recent
// remap or steal.
func NewPeerFetch(peers []Worker, httpc *http.Client, maxTries int) (rescache.PeerFetch, error) {
	if len(peers) == 0 {
		return nil, errors.New("fleet: peer fetch needs at least one peer")
	}
	if maxTries <= 0 {
		maxTries = 2
	}
	if maxTries > len(peers) {
		maxTries = len(peers)
	}
	names := make([]string, len(peers))
	clients := make([]*client.Client, len(peers))
	for i, p := range peers {
		if p.Name == "" || p.URL == "" {
			return nil, fmt.Errorf("fleet: peer %d needs a name and a URL", i)
		}
		names[i] = p.Name
		cl, err := client.New(client.Config{
			BaseURL:     p.URL,
			HTTP:        httpc,
			MaxAttempts: 1, // a peer fetch is an optimization; never retry-storm it
			Seed:        int64(i + 1),
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: peer %s: %w", p.Name, err)
		}
		clients[i] = cl
	}
	ring := NewRing(names, 0)
	return func(ctx context.Context, ns string, d rescache.Digest) ([]byte, error) {
		var lastErr error
		for _, wi := range ring.Seq(string(d))[:maxTries] {
			resp, err := clients[wi].Get(ctx, "/v1/cache/"+ns+"/"+string(d))
			if err == nil {
				return resp.Body, nil
			}
			if ctx.Err() != nil {
				return nil, err
			}
			var ae *client.APIError
			if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
				continue // healthy miss: this peer just doesn't hold it
			}
			lastErr = err // transport-level trouble: feeds the peer breaker
		}
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, rescache.ErrPeerMiss
	}, nil
}

// ---- small parsers (mirror internal/service's parameter discipline) ----

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func (c *Coordinator) respondRaw(w http.ResponseWriter, r *http.Request, hit bool, dig rescache.Digest, body []byte) {
	q := telemetry.FromContext(r.Context())
	q.SetDigest(string(dig))
	q.SetCache(cacheWord(hit))
	defer q.StartPhase(telemetry.PhaseEncode)()
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", cacheWord(hit))
	h.Set("X-Digest", string(dig))
	w.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

func parseIntDefault(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func boolParam(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}
