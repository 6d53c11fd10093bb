// Command concolicd serves concolic analyses over HTTP: clients submit
// {bomb, tool, workers, budget} jobs, the service runs them on a bounded
// worker pool over the shared engine, and job lifecycle, cancellation,
// streaming progress and Prometheus metrics are all exposed under /v1
// (see README and DESIGN.md §10, §16).
//
//	concolicd -addr :8344 -queue 64 -workers 4
//	curl -s localhost:8344/v1/jobs -d '{"bomb":"jump","tool":"reference"}'
//	curl -s localhost:8344/v1/jobs/job-000001
//	curl -s localhost:8344/v1/jobs/job-000001/events        # SSE progress
//	curl -s -X DELETE localhost:8344/v1/jobs/job-000001
//	curl -s localhost:8344/metrics
//
// Fleet mode: give each replica a -store (jobs survive restarts), one
// shared -sharedcache directory (negation queries solved once fleet-
// wide), a -replica name and the sibling URLs in -peers (idle replicas
// steal queued jobs):
//
//	concolicd -addr :8344 -replica a -store /var/a -sharedcache /var/tier -peers http://localhost:8345
//	concolicd -addr :8345 -replica b -store /var/b -sharedcache /var/tier -peers http://localhost:8344
//
// SIGTERM (or SIGINT) begins a graceful drain: submissions get 503,
// accepted jobs finish, and past -drain-timeout the remaining jobs are
// cancelled through their contexts.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/jobstore"
	"repro/internal/service"
	"repro/internal/sharedcache"
	"repro/internal/solver"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	queue := flag.Int("queue", service.DefaultQueueDepth,
		"queued-job bound; submissions beyond it receive HTTP 429")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = all CPUs)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long a drain waits for accepted jobs before cancelling them")
	storeDir := flag.String("store", "",
		"job store directory; queued jobs and finished results survive restarts")
	sharedDir := flag.String("sharedcache", "",
		"cross-replica solver-cache tier directory (shared by the fleet)")
	replica := flag.String("replica", "",
		"this replica's name in a fleet (defaults to the listen address)")
	peers := flag.String("peers", "",
		"comma-separated sibling base URLs to steal queued jobs from")
	stealInterval := flag.Duration("steal-interval", service.DefaultStealInterval,
		"how often an idle replica polls its peers for work")
	stealLease := flag.Duration("steal-lease", service.DefaultStealLease,
		"how long a stolen job may run before being requeued")
	rate := flag.Float64("rate", 0,
		"per-tenant submissions per second (X-API-Key header; 0 = unlimited)")
	rateBurst := flag.Int("rate-burst", 0, "per-tenant submission burst (0 = 1)")
	tenantMax := flag.Int("tenant-max-active", 0,
		"per-tenant cap on queued+running jobs (0 = unlimited)")
	categories := flag.String("categories", "",
		"comma-separated bomb categories this replica serves, e.g. accuracy,scalability,extended (empty = all)")
	flag.Parse()

	var jobs *jobstore.Log
	if *storeDir != "" {
		jl, err := jobstore.Open(*storeDir)
		if err != nil {
			log.Fatalf("concolicd: open job store: %v", err)
		}
		jobs = jl
	}
	var shared solver.QueryCache
	var tier *sharedcache.Tier
	if *sharedDir != "" {
		t, err := sharedcache.Open(*sharedDir)
		if err != nil {
			log.Fatalf("concolicd: open shared cache tier: %v", err)
		}
		tier = t
		shared = solver.SharedTier(t)
	}
	if *replica == "" {
		*replica = *addr
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}
	var catList []string
	for _, c := range strings.Split(*categories, ",") {
		if c = strings.TrimSpace(c); c != "" {
			catList = append(catList, c)
		}
	}

	srv := service.New(service.Config{
		QueueDepth:      *queue,
		Workers:         *workers,
		Jobs:            jobs,
		SharedCache:     shared,
		Replica:         *replica,
		Peers:           peerList,
		StealInterval:   *stealInterval,
		StealLease:      *stealLease,
		RatePerSec:      *rate,
		RateBurst:       *rateBurst,
		TenantMaxActive: *tenantMax,
		Categories:      catList,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	log.Printf("concolicd listening on %s (replica %s, queue %d, workers %d, peers %d)",
		*addr, *replica, *queue, w, len(peerList))

	select {
	case err := <-errc:
		log.Fatalf("concolicd: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("concolicd: signal received, draining (timeout %v)", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Drain(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil {
		httpSrv.Close()
	}
	if jobs != nil {
		if err := jobs.Close(); err != nil {
			log.Printf("concolicd: close job store: %v", err)
		}
	}
	if tier != nil {
		if err := tier.Close(); err != nil {
			log.Printf("concolicd: close shared cache tier: %v", err)
		}
	}
	log.Printf("concolicd: drained, bye")
}
