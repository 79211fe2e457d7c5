// Command oram-server serves multi-tenant ORAM over HTTP: one
// pathoram.Client per tenant (per-tenant keys derived from a service
// master through the domain-separated KDF), the construction read from
// Spec's text form (the internal/explore flag set the grids share), and a
// graceful drain on SIGTERM/SIGINT — in-flight requests finish, then
// every tenant flushes, checkpoints its WAL and closes its tree files.
// A failed drain (e.g. a file-backend Sync error) exits non-zero.
//
// Example — two durable tenants on a file+WAL backend:
//
//	oram-server -addr 127.0.0.1:8470 -backend file -dir /var/lib/oram -wal \
//	    -tenants alice,bob -blocks 16384 -blocksize 64 -async
//
// See internal/service.Handler for the endpoint list.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pathoram "repro"
	"repro/internal/encrypt"
	"repro/internal/explore"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oram-server: ")
	// Every tenant is built from this Spec.
	spec := pathoram.Spec{Blocks: 1 << 14, BlockSize: 64, Shards: 1}
	explore.BindSpec(flag.CommandLine, &spec)
	var (
		addr     = flag.String("addr", "127.0.0.1:8470", "listen address")
		tenants  = flag.String("tenants", "", "comma-separated tenant names to create at startup (more via PUT /v1/tenants/{name})")
		maxTen   = flag.Int("max-tenants", 0, "tenant admission limit (0 = 64)")
		keyHex   = flag.String("master-key", "", "hex service master key, 32 hex chars (empty = drawn fresh; supply it for durable deployments, or nothing sealed by a previous process can be desealed)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "bound on waiting out in-flight HTTP requests during shutdown")
	)
	flag.Parse()
	// Inert flags are rejected by pathoram's rule table now, not when the
	// first tenant is created.
	err := spec.Validate()
	if err != nil {
		log.Fatal(err)
	}
	var master []byte
	if *keyHex != "" {
		if master, err = hex.DecodeString(*keyHex); err != nil {
			log.Fatalf("parsing -master-key: %v", err)
		}
	}
	svc, err := service.New(service.Config{Template: spec, MasterKey: master, MaxTenants: *maxTen})
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range strings.Split(*tenants, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if _, err := svc.Create(name); err != nil {
			log.Fatalf("creating tenant %q: %v", name, err)
		}
		log.Printf("tenant %q ready", name)
	}

	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (%d blocks x %dB, %d shards/tenant, backend=%s, wal=%v, async=%v, keystream=%s)",
		*addr, spec.Blocks, spec.BlockSize, spec.Shards, spec.Backend, spec.WAL, spec.AsyncEviction, encrypt.KeystreamImpl())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// The listener died on its own; still drain the tenants so a
		// durable deployment is left checkpointed.
		svc.Close() //nolint:errcheck // the listener error is the headline
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()

	// Drain: stop accepting, wait out in-flight requests, then close every
	// tenant (Flush → WAL checkpoint → file close). Either failure is a
	// non-zero exit — a dropped final checkpoint must not look clean.
	log.Print("draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	if errors.Is(shutErr, http.ErrServerClosed) {
		shutErr = nil
	}
	closeErr := svc.Close()
	if shutErr != nil || closeErr != nil {
		log.Fatal(errors.Join(shutErr, closeErr))
	}
	fmt.Println("oram-server: drained cleanly")
}
