// Command pgxsortd is the resident sorting service: a long-lived HTTP
// server fronting the distributed sorting engine, so sorts arrive as
// jobs over the network instead of one-shot CLI runs.
//
//	pgxsortd -addr :7421 -procs 8 -workers 4
//
// Endpoints (full reference in docs/API.md):
//
//	POST /v1/sort    — sort uploaded or synthetic keys
//	POST /v1/topk    — top-k / bottom-k without a full sort
//	POST /v1/rank    — one key's global rank without a full sort
//	GET  /healthz    — liveness
//	GET  /readyz     — readiness (503 while draining)
//	GET  /metrics    — Prometheus text exposition
//	GET  /debug/jobs — recent job traces
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, readyz
// flips to 503, in-flight jobs finish, then the engines shut down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pgxsort"
	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
	"pgxsort/internal/serve"
	tp "pgxsort/internal/transport"
)

// drainTimeout bounds the graceful shutdown: how long in-flight jobs
// get to finish once a signal arrives.
const drainTimeout = 30 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pgxsortd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	addr, cfg, err := buildConfig(args)
	if err != nil {
		return err
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	keytypes := cfg.KeyTypes
	if len(keytypes) == 0 {
		keytypes = dist.KeyTypes
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("pgxsortd: listening on %s (procs=%d workers=%d transport=%s keytypes=%v)",
			addr, cfg.Procs, cfg.Workers, transportName(cfg.Transport), keytypes)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("pgxsortd: %v — draining (up to %v)", sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("pgxsortd: shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			return fmt.Errorf("closing engines: %w", err)
		}
		log.Print("pgxsortd: drained")
		return nil
	case err := <-errCh:
		srv.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// buildConfig turns the flag set into the listen address and the serve
// config; split out of run so tests can exercise flag validation.
func buildConfig(args []string) (addr string, cfg serve.Config, err error) {
	fs := flag.NewFlagSet("pgxsortd", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", ":7421", "HTTP listen address")
	procs := fs.Int("procs", 8, "simulated processors per engine")
	workers := fs.Int("workers", 2, "workers per processor")
	keytypes := fs.String("keytypes", "", "comma-separated key domains to serve (default uint64,float64,string)")
	transport := fs.String("transport", "chan", "transport: chan or tcp")
	listen := fs.String("listen", "", "comma-separated per-node TCP listen addresses (tcp transport)")
	peers := fs.String("peers", "", "comma-separated per-node TCP dial addresses (tcp transport)")
	inflight := fs.Int("inflight", 0, "global scheduler admission cap (0 = engine default)")
	tenantInflight := fs.Int("tenant-inflight", 0, "per-tenant inflight cap (0 = default 2)")
	queue := fs.Int("queue", 0, "admission queue depth before 429 (0 = default 16)")
	cacheMB := fs.Int("cache-mb", 0, "result cache budget in MiB (0 = default 64, negative disables)")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job deadline (0 = 60s)")
	maxKeys := fs.Int("max-keys", 0, "largest accepted dataset (0 = default 50M keys)")
	retryAttempts := fs.Int("retry-attempts", 0, "scheduler attempts per job before the failure surfaces (0 = default 3)")
	brThreshold := fs.Int("breaker-threshold", 0, "consecutive fatal mesh failures that open the circuit breaker (0 = default 1)")
	brCooldown := fs.Duration("breaker-cooldown", 0, "how long an open breaker waits before probing the mesh again (0 = default 30s)")
	fallbackKeys := fs.Int("fallback-keys", 0, "largest job the degraded single-node fallback accepts (0 = max-keys, negative disables)")
	memBudget := fs.String("mem-budget", "", "per-node temporary-memory budget (e.g. 64M, 2G); sorts spill runs to scratch files in -spill-dir beyond it")
	spillDir := fs.String("spill-dir", "", "directory for the engines' scratch files, upload spools included; unlinked at creation, so it never lists one (default: system temp dir)")
	spoolThreshold := fs.String("spool-threshold", "", "octet-stream upload size past which the body spools to the spill tier (e.g. 8M; empty = 8M clamped to -mem-budget, 'off' keeps every upload resident)")
	uploadTimeout := fs.Duration("upload-timeout", 0, "per-read idle deadline on streamed uploads; stalled clients get 408 (0 = 30s, negative disables)")
	govBudget := fs.String("gov-budget", "", "process-wide memory governor budget (e.g. 256M); jobs that would exceed it answer 429/413 (empty disables gating)")
	cacheEntryFrac := fs.Int("cache-entry-frac", 0, "cap single result-cache entries at cache budget divided by this (0 = default 8, 1 = any size that fits)")
	failpoints := fs.String("failpoints", "", "failpoint spec site:mode[:nth[:count]][,...] for fault drills (also via "+failpoint.EnvVar+")")
	if err = fs.Parse(args); err != nil {
		return "", cfg, err
	}
	if fs.NArg() > 0 {
		return "", cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *failpoints != "" {
		if err = failpoint.Configure(*failpoints); err != nil {
			return "", cfg, err
		}
	}

	cfg.Procs = *procs
	cfg.Workers = *workers
	cfg.Transport = *transport
	cfg.MaxInflight = *inflight
	cfg.TenantInflight = *tenantInflight
	cfg.QueueDepth = *queue
	cfg.CacheBytes = int64(*cacheMB) << 20
	cfg.JobTimeout = *jobTimeout
	cfg.MaxKeys = *maxKeys
	cfg.RetryAttempts = *retryAttempts
	cfg.BreakerThreshold = *brThreshold
	cfg.BreakerCooldown = *brCooldown
	cfg.FallbackKeys = *fallbackKeys
	cfg.SpillDir = *spillDir
	cfg.UploadTimeout = *uploadTimeout
	cfg.CacheEntryFrac = *cacheEntryFrac

	if cfg.MemoryBudget, err = pgxsort.ParseMemBudget(*memBudget); err != nil {
		return "", cfg, err
	}
	if *spoolThreshold == "off" {
		cfg.SpoolThreshold = -1
	} else if cfg.SpoolThreshold, err = pgxsort.ParseMemBudget(*spoolThreshold); err != nil {
		return "", cfg, err
	}
	if cfg.GovernorBudget, err = pgxsort.ParseMemBudget(*govBudget); err != nil {
		return "", cfg, err
	}
	if *keytypes != "" {
		for _, name := range tp.SplitAddrs(*keytypes) {
			kt, err := dist.ParseKeyType(name)
			if err != nil {
				return "", cfg, err
			}
			cfg.KeyTypes = append(cfg.KeyTypes, kt)
		}
	}
	if *listen != "" || *peers != "" {
		if *transport != pgxsort.TransportTCP {
			return "", cfg, fmt.Errorf("-listen/-peers require -transport tcp")
		}
		cfg.TCP.Listen = tp.SplitAddrs(*listen)
		cfg.TCP.Peers = tp.SplitAddrs(*peers)
		if len(cfg.TCP.Listen) > 0 && len(cfg.TCP.Listen) != *procs {
			return "", cfg, fmt.Errorf("-listen names %d addresses for %d processors", len(cfg.TCP.Listen), *procs)
		}
		if len(cfg.TCP.Peers) > 0 && len(cfg.TCP.Peers) != *procs {
			return "", cfg, fmt.Errorf("-peers names %d addresses for %d processors", len(cfg.TCP.Peers), *procs)
		}
		if len(cfg.KeyTypes) != 1 {
			return "", cfg, fmt.Errorf("-listen/-peers bind one TCP mesh: name exactly one domain with -keytypes (e.g. -keytypes uint64)")
		}
	}
	return addr, cfg, nil
}

func transportName(t string) string {
	if t == "" {
		return "chan"
	}
	return t
}
