// Command server runs the pattern-discovery daemon: an HTTP/JSON service
// that analyzes registered Starbench workloads on demand, batching
// concurrent requests through a bounded admission queue over one shared
// view–verdict cache, and memoizing finished reports in a result store so
// resubmissions are answered without re-tracing or re-solving.
//
// Usage:
//
//	server -addr :8080 -store disk -store-dir /var/lib/discovery
//	curl -s localhost:8080/analyze -d '{"bench":"md5","version":"pthreads"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"discovery/internal/fault"
	"discovery/internal/server"
	"discovery/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		storeKind  = flag.String("store", "memory", "result store backend: memory, disk, or none")
		storeDir   = flag.String("store-dir", "discovery-store", "directory for -store disk")
		inflight   = flag.Int("max-inflight", 2, "concurrent analysis workers")
		queueDepth = flag.Int("queue", 16, "admission queue depth beyond the workers (full queue => 503)")
		defBudget  = flag.Duration("default-budget", 60*time.Second, "per-request budget when the request sets none")
		maxBudget  = flag.Duration("max-budget", 5*time.Minute, "ceiling on requested budgets")
		schedWork  = flag.Int("sched-workers", 0, "shared solve-scheduler pool size across all requests (0 = GOMAXPROCS)")
		memBudget  = flag.Int64("trace-memory-budget", 0, "per-request resident DDG arc-byte budget; larger graphs page through unlinked spill files (0 = fully resident)")
		spillDir   = flag.String("ddg-spill-dir", "", "directory for DDG spill files (default: the system temp dir)")

		// The deterministic fault-injection seam. The store's memory
		// fallback and admission brownout are always on and take no flags.
		faultPlan = flag.String("fault-plan", "", "JSON fault plan for chaos testing (see internal/fault); empty = none")
	)
	flag.Parse()

	var st store.Store
	switch *storeKind {
	case "memory":
		st = store.NewMemory()
	case "disk":
		d, err := store.NewDisk(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening store: %v\n", err)
			os.Exit(1)
		}
		st = d
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "unknown store backend %q (memory, disk, or none)\n", *storeKind)
		os.Exit(1)
	}

	cfg := server.Config{
		MaxInFlight:   *inflight,
		QueueDepth:    *queueDepth,
		DefaultBudget: *defBudget,
		MaxBudget:     *maxBudget,
		SchedWorkers:  *schedWork,
		SpillBudget:   *memBudget,
		SpillDir:      *spillDir,
		Store:         st,
	}

	// A fault plan turns the daemon into its own chaos subject: scripted,
	// deterministic failures on the store and at phase boundaries. Never
	// set one in production.
	if *faultPlan != "" {
		plan, err := fault.Load(*faultPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading fault plan: %v\n", err)
			os.Exit(1)
		}
		if st != nil {
			cfg.Store = plan.Store(st)
		}
		cfg.PhaseHook = plan.PhaseHook()
		fmt.Fprintf(os.Stderr, "fault plan %q armed (seed %d)\n", plan.Name(), plan.Seed())
	}

	srv := server.New(cfg)

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "discovery server listening on %s (store=%s, workers=%d, queue=%d)\n",
		*addr, *storeKind, *inflight, *queueDepth)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serving: %v\n", err)
			os.Exit(1)
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "shutting down")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	srv.Close()
	if st != nil {
		st.Close()
	}
}
