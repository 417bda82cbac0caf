// Command ugserve is the long-running multi-tenant solver service: an
// HTTP/JSON daemon accepting STP and MISDP instances, running them on a
// bounded priority job queue over a shared in-process worker pool, with
// an instance-keyed presolve cache and per-job live event streams.
//
// Usage:
//
//	ugserve -listen :8080 -max-concurrent 2 -cache-bytes 67108864
//
// API:
//
//	POST   /v1/jobs             submit {"kind":"stp","instance":"cc3-4p"}
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        one job's status/result
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /v1/jobs/{id}/events per-job SSE event stream (replays the
//	                            flight-recorder tail after completion)
//	GET    /v1/jobs/{id}/debug  forensics bundle tarball (failed jobs)
//	GET    /metrics             Prometheus text: uptime, job/queue/cache series
//	GET    /debug/pprof/        live profiling
//
// /metrics and /debug/pprof/ are the debug server `ugsteiner -pprof`
// serves, with the job API mounted on it.
//
// SIGINT/SIGTERM drain gracefully: stop admitting, finish (or stop
// after -drain-grace) running jobs, then exit 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8080", "HTTP listen address (host:port, :0 = any port)")
		maxConc    = flag.Int("max-concurrent", 2, "solves running at once (worker pool size)")
		queueCap   = flag.Int("queue-cap", 64, "bounded job queue capacity (submissions past it get 429)")
		cacheBytes = flag.Int64("cache-bytes", 64<<20, "presolve cache LRU byte budget (0 = unbounded)")
		defWorkers = flag.Int("workers", 2, "default ParaSolvers per job (overridable per submission)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long a drain lets running solves finish before stopping them")
		debugDir   = flag.String("debug-dir", "ugserve-debug", "directory for per-job forensics bundles on failed/deadline jobs (empty = disabled)")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		Addr:           *listen,
		MaxConcurrent:  *maxConc,
		QueueCap:       *queueCap,
		CacheBytes:     *cacheBytes,
		DefaultWorkers: *defWorkers,
		DebugDir:       *debugDir,
	})
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "ugserve:", err)
		os.Exit(1)
	}
	fmt.Printf("ugserve listening on http://%s (POST /v1/jobs, /metrics, /debug/pprof/)\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("ugserve: %v — draining (grace %s; signal again to force quit)\n", got, *drainGrace)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "ugserve: second signal, forcing exit")
		os.Exit(1)
	}()
	drained := srv.Drain(*drainGrace)
	fmt.Printf("ugserve: drained (%d running job(s) at drain start), exiting\n", drained)
}
