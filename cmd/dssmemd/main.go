// Command dssmemd serves the paper's simulations over HTTP: measurements,
// figures and sweeps computed on demand, deduplicated in flight, and cached
// in a persistent content-addressed store so nothing deterministic is ever
// simulated twice.
//
// Usage:
//
//	dssmemd [-addr :8077] [-preset tiny|small|medium] [-cache-dir DIR]
//	        [-workers N] [-run-timeout D] [-env-parallelism N]
//	        [-drain-timeout D] [-max-queue N] [-hard-deadline D]
//	        [-faults SPEC] [-fault-seed N]
//	        [-log-format json|text] [-debug-addr ADDR]
//	        [-role worker|coordinator] [-fleet-workers SPEC] [-peers SPEC]
//
// Overload and failure handling (DESIGN.md §10): requests beyond the worker
// pool wait in a bounded queue (-max-queue); past that they are shed with
// 429 + Retry-After. -hard-deadline arms a watchdog that abandons any
// simulation still running past the deadline, even one wedged beyond the
// reach of cooperative cancellation. -faults arms deterministic fault
// injection for chaos drills against a live daemon, e.g.
//
//	dssmemd -preset tiny -faults 'disk.read.corrupt=0.1,compute.panic=0.05'
//
// Telemetry (DESIGN.md §12): every request is assigned an X-Request-ID
// (inbound IDs are honored), logged as one structured line with per-phase
// timings, measured into per-endpoint and per-phase histograms on /metrics,
// and visible live at /debug/requests. -debug-addr opens a second listener
// with net/http/pprof plus the same /metrics and /debug/requests — keep it
// private; the main listener never exposes pprof.
//
// Fleet mode (DESIGN.md §13–14): N daemons plus one coordinator serve the
// same /v1 API as a single logical service. Workers gain a peer-fill cache
// tier with -peers; the coordinator shards requests by content digest:
//
//	dssmemd -preset tiny -addr :8078 -peers 'w1=http://localhost:8079'
//	dssmemd -preset tiny -addr :8079 -peers 'w0=http://localhost:8078'
//	dssmemd -role coordinator -preset tiny -addr :8077 \
//	        -fleet-workers 'w0=http://localhost:8078,w1=http://localhost:8079'
//
// Membership is dynamic (DESIGN.md §14): -fleet-workers is only the boot
// roster (it may be empty), and workers join and heartbeat themselves with
// -join/-name/-advertise. The coordinator ejects a worker after -eject-after
// missed heartbeats (its keyspace fails over), re-admits it through a
// half-open probe, replays hinted results to it, and — with -repair-interval
// — runs a background anti-entropy pass over the fleet's caches. With
// -job-dir, sweeps are durable jobs: a coordinator (or worker) killed
// mid-sweep resumes unfinished sweeps on restart, serving already-completed
// points from cache; poll them at /v1/jobs/{id}:
//
//	dssmemd -role coordinator -preset tiny -addr :8077 -job-dir jobs \
//	        -heartbeat 2s -eject-after 3 -repair-interval 30s
//	dssmemd -preset tiny -addr :8078 -join http://localhost:8077 \
//	        -name w0 -advertise http://localhost:8078
//
// Endpoints (see internal/service):
//
//	curl localhost:8077/v1/figure/2
//	curl 'localhost:8077/v1/measure?machine=origin&query=Q21&procs=8'
//	curl 'localhost:8077/v1/sweep?machine=vclass&query=Q6'
//	curl localhost:8077/healthz
//	curl localhost:8077/metrics
//	curl localhost:8077/debug/requests
//
// The first SIGINT/SIGTERM drains gracefully: new connections are refused,
// in-flight requests (and their simulations) run to completion, bounded by
// -drain-timeout. A second signal — or the drain deadline — aborts the
// remaining simulations at their next scheduling quantum and exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dssmem"
	"dssmem/internal/fault"
	"dssmem/internal/fleet"
	"dssmem/internal/rescache"
	"dssmem/internal/service"
	"dssmem/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	preset := flag.String("preset", "medium", "scale preset: tiny, small or medium")
	cacheDir := flag.String("cache-dir", "dssmemd-cache", "persistent result cache directory ('' = memory only)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 10*time.Minute, "per-simulation ceiling (0 = none)")
	envPar := flag.Int("env-parallelism", 0, "per-figure sweep fan-out (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget before in-flight runs are aborted")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for a worker before shedding with 429 (0 = 4x workers, <0 = unbounded)")
	hardDeadline := flag.Duration("hard-deadline", 0, "watchdog deadline after which a run is abandoned (0 = 2x run-timeout, <0 = none)")
	faultSpec := flag.String("faults", "", "arm fault injection: 'site=prob,...' (sites: "+strings.Join(siteNames(), " ")+")")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault injector's RNG")
	logFormat := flag.String("log-format", "json", "log output format: json or text")
	debugAddr := flag.String("debug-addr", "", "private debug listener with pprof, /metrics and /debug/requests ('' = off)")
	recentReqs := flag.Int("recent-requests", 0, "completed requests retained by /debug/requests (0 = default)")
	role := flag.String("role", "worker", "process role: worker (serves simulations) or coordinator (shards over -fleet-workers)")
	fleetWorkers := flag.String("fleet-workers", "", "coordinator: static boot roster as 'name=url,...' ('' = dynamic only, workers -join)")
	peers := flag.String("peers", "", "worker: fleet peers as 'name=url,...' consulted on a cache miss before recomputing")
	peerTries := flag.Int("peer-tries", 0, "worker: peers asked per cache miss (0 = 2)")
	stealAfter := flag.Duration("steal-after", 15*time.Second, "coordinator: straggler deadline before re-issuing a call to the next worker (<0 = off)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "membership cadence: coordinator probe interval, worker push interval with -join (<0 = coordinator ticker off)")
	ejectAfter := flag.Int("eject-after", 3, "coordinator: consecutive missed observations before a worker is ejected from the ring")
	repairEvery := flag.Duration("repair-interval", 0, "coordinator: anti-entropy repair cadence (0 = off)")
	jobDir := flag.String("job-dir", "", "durable sweep-job journal directory; unfinished sweeps resume after a restart ('' = memory only)")
	joinURL := flag.String("join", "", "worker: coordinator base URL to join and heartbeat (e.g. http://localhost:8077)")
	name := flag.String("name", "", "worker: stable fleet name sent with -join ('' = hostname)")
	advertise := flag.String("advertise", "", "worker: base URL peers reach this worker at, sent with -join ('' = derive from -addr)")
	sampleQuanta := flag.Int("sample-quanta", 0, "default SMARTS sampling period for requests without sample_quanta (0/1 = exact)")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dssmemd: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	p, err := dssmem.PresetByName(*preset)
	if err != nil {
		fatal("bad preset", err)
	}

	// The role decides what this process is: a worker owns a dataset and
	// simulates; a coordinator owns neither — it routes, verifies and
	// aggregates, so it starts instantly and stays cheap.
	var handler http.Handler
	var closeSrv func()
	var reg *telemetry.Registry
	var dbgRequests http.Handler
	switch *role {
	case "coordinator":
		var roster []fleet.Worker
		if *fleetWorkers != "" {
			roster, err = fleet.ParseWorkers(*fleetWorkers)
			if err != nil {
				fatal("-fleet-workers", err)
			}
		}
		var fleetHTTP *http.Client
		if *faultSpec != "" {
			// Coordinator-side chaos: the injector sits in the transport of
			// every coordinator→worker call (and scrape), so net.dial.err and
			// net.resp.truncated exercise the failover/steal paths.
			probs, err := fault.ParseSpec(*faultSpec)
			if err != nil {
				fatal("-faults", err)
			}
			inj := fault.New(*faultSeed)
			inj.Configure(probs)
			fleetHTTP = &http.Client{Transport: &fault.Transport{Inj: inj}}
			logger.Warn("FAULT INJECTION ARMED", "seed", *faultSeed, "spec", inj.String())
		}
		coord, err := fleet.New(fleet.Config{
			Preset:         p,
			Workers:        roster,
			HTTP:           fleetHTTP,
			StealAfter:     *stealAfter,
			Heartbeat:      *heartbeat,
			EjectAfter:     *ejectAfter,
			RepairInterval: *repairEvery,
			JobDir:         *jobDir,
			Log:            logger,
			RecentRequests: *recentReqs,
		})
		if err != nil {
			fatal("starting coordinator", err)
		}
		handler, closeSrv, reg, dbgRequests = coord.Handler(), coord.Close, coord.Registry(), coord.DebugRequests()
		logger.Info("coordinating fleet", "workers", len(roster), "steal_after", stealAfter.String(),
			"heartbeat", heartbeat.String(), "eject_after", *ejectAfter, "jobs", cacheLabel(*jobDir))

	case "worker":
		cfg := service.Config{
			Preset:         p,
			CacheDir:       *cacheDir,
			JobDir:         *jobDir,
			Workers:        *workers,
			RunTimeout:     *runTimeout,
			EnvParallelism: *envPar,
			MaxQueue:       *maxQueue,
			HardDeadline:   *hardDeadline,
			Log:            logger,
			RecentRequests: *recentReqs,
			SampleQuanta:   *sampleQuanta,
		}
		var inj *fault.Injector
		if *faultSpec != "" {
			probs, err := fault.ParseSpec(*faultSpec)
			if err != nil {
				fatal("-faults", err)
			}
			inj = fault.New(*faultSeed)
			inj.Configure(probs)
			cfg.Faults = inj
			if *cacheDir != "" {
				// Route the cache's disk I/O through the injector too, so disk
				// sites fire; the store is otherwise identical to the default.
				store, err := rescache.OpenFS(*cacheDir, fault.FS{Inner: rescache.OSFS{}, Inj: inj})
				if err != nil {
					fatal("opening fault-injecting store", err)
				}
				cfg.Store = store
			}
			logger.Warn("FAULT INJECTION ARMED", "seed", *faultSeed, "spec", inj.String())
		}
		if *peers != "" {
			roster, err := fleet.ParseWorkers(*peers)
			if err != nil {
				fatal("-peers", err)
			}
			var peerHTTP *http.Client
			if inj != nil {
				// Peer fetches ride the same injector, so net.* sites exercise
				// the peer tier's breaker and frame verification.
				peerHTTP = &http.Client{Transport: &fault.Transport{Inj: inj}}
			}
			pf, err := fleet.NewPeerFetch(roster, peerHTTP, *peerTries)
			if err != nil {
				fatal("-peers", err)
			}
			cfg.PeerFetch = pf
			logger.Info("peer cache fill armed", "peers", len(roster))
		}

		logger.Info("generating dataset", "preset", p.Name, "sf", p.SF)
		srv, err := service.New(cfg)
		if err != nil {
			fatal("starting service", err)
		}
		handler, closeSrv, reg, dbgRequests = srv.Handler(), func() { srv.Close() }, srv.Registry(), srv.DebugRequests()

		if *joinURL != "" {
			wkName, wkURL := workerIdentity(*name, *advertise, *addr)
			every := *heartbeat
			if every <= 0 {
				every = 5 * time.Second
			}
			go heartbeatLoop(strings.TrimRight(*joinURL, "/"), wkName, wkURL, every, logger)
			logger.Info("joining fleet", "coordinator", *joinURL, "name", wkName, "advertise", wkURL, "heartbeat", every.String())
		}

	default:
		fatal("-role", fmt.Errorf("unknown role %q (worker|coordinator)", *role))
	}

	if *debugAddr != "" {
		go serveDebug(*debugAddr, reg, dbgRequests, logger)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "role", *role, "preset", p.Name, "addr", *addr, "cache", cacheLabel(*cacheDir))

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal("listener failed", err)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "budget", drainTimeout.String())
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Shutdown(drainCtx) }()
	select {
	case err := <-done:
		if err != nil {
			logger.Warn("drain incomplete, aborting in-flight runs", "err", err)
		}
	case sig := <-sigc:
		logger.Warn("aborting in-flight runs", "signal", sig.String())
	}
	closeSrv()
	httpSrv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("listener error", "err", err)
	}
	logger.Info("stopped")
}

// newLogger builds the process logger writing to stderr in the chosen
// format. JSON is the default: one request per line, machine-parseable.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (json|text)", format)
}

// serveDebug runs the private debug listener: pprof (never on the public
// mux), plus the same metrics and request inspector the API serves.
func serveDebug(addr string, reg *telemetry.Registry, dbgRequests http.Handler, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/requests", dbgRequests)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	logger.Info("debug listener up", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("debug listener failed", "err", err)
	}
}

// workerIdentity resolves the fleet name and advertised URL a joining worker
// announces: explicit flags win; the name falls back to the hostname and the
// URL derives from -addr (loopback when -addr only names a port — right for
// single-host fleets; multi-host fleets set -advertise).
func workerIdentity(name, advertise, addr string) (string, string) {
	if name == "" {
		if hn, err := os.Hostname(); err == nil && hn != "" {
			name = hn
		} else {
			name = "worker"
		}
	}
	if advertise == "" {
		if strings.HasPrefix(addr, ":") {
			advertise = "http://127.0.0.1" + addr
		} else {
			advertise = "http://" + addr
		}
	}
	return name, strings.TrimRight(advertise, "/")
}

// heartbeatLoop announces this worker to the coordinator immediately and
// then every interval: the same POST is both the initial join and the
// ongoing heartbeat (the endpoint is idempotent). Failures only log — the
// coordinator's pull probes and health scrapes are the backstop, and a
// worker keeps serving regardless of its membership state.
func heartbeatLoop(joinURL, name, selfURL string, every time.Duration, logger *slog.Logger) {
	body, _ := json.Marshal(struct {
		Name string `json:"name"`
		URL  string `json:"url"`
	}{name, selfURL})
	httpc := &http.Client{Timeout: 5 * time.Second}
	beat := func() {
		resp, err := httpc.Post(joinURL+"/v1/fleet/join", "application/json", bytes.NewReader(body))
		if err != nil {
			logger.Warn("heartbeat failed", "coordinator", joinURL, "err", err)
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			logger.Warn("heartbeat rejected", "coordinator", joinURL, "status", resp.StatusCode)
		}
	}
	beat()
	t := time.NewTicker(every)
	defer t.Stop()
	for range t.C {
		beat()
	}
}

func siteNames() []string {
	sites := fault.Sites()
	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = string(s)
	}
	return names
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return fmt.Sprintf("dir %s", dir)
}
