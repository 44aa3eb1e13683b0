// Command dregexd is the validation server: a long-running HTTP service
// exposing the deterministic-regular-expression pipeline as JSON
// endpoints, with a hot-reloadable registry of named DTD and XSD schemas.
//
// Usage:
//
//	dregexd [-addr :8480] [-cache 4096] [-max-body 4194304]
//	        [-log off|text|json] [-pprof ADDR]
//	        [-rate N] [-burst N] [-schema-rate N] [-schema-burst N]
//	        [-max-inflight N] [-compile-timeout D] [-validate-timeout D]
//
// Endpoints:
//
//	POST   /v1/compile        determinism verdict, rule, counterexample, stats
//	POST   /v1/match          batch word matching against one expression
//	POST   /v1/validate       validate an XML document against a registered schema
//	PUT    /v1/schemas/{name} register or atomically hot-swap a schema (dtd/xsd)
//	GET    /v1/schemas        list registered schemas
//	GET    /v1/schemas/{name} schema metadata
//	DELETE /v1/schemas/{name} unregister
//	GET    /v1/stats          cache hit/negative stats, per-endpoint counters
//	GET    /metrics           Prometheus text exposition (latency histograms,
//	                          verdict counters, cache gauges, engine tiers)
//
// With -log text or -log json, every request emits one structured
// access-log line (request id, method, path, status, bytes, duration,
// remote addr, and — for validations — schema and verdict) on stderr; the
// default -log off skips all logging work on the hot path. With -pprof
// ADDR, net/http/pprof is served on its own listener (never on the public
// address).
//
// The -rate/-burst flags arm a global token bucket over the non-admin
// endpoints; -schema-rate/-schema-burst add one bucket per registered
// schema on /v1/validate; -max-inflight bounds concurrently executing
// requests per endpoint class; -compile-timeout and -validate-timeout
// bound one compile wait and one validation run. Shed requests get 429
// (rate) or 503 (capacity/deadline) with a Retry-After header and a
// structured JSON error — see the README's "Overload & resilience"
// section. All are off by default.
//
// All expressions and schema content models compile through one shared
// cache; validation requests reuse pooled per-schema state. The server
// shuts down gracefully on SIGINT/SIGTERM, draining in-flight requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dregex"
	"dregex/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("dregexd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8480", "listen address (host:port; :0 picks a free port)")
		cacheSize = fs.Int("cache", 4096, "compiled-expression cache capacity")
		maxBody   = fs.Int64("max-body", server.DefaultMaxBodyBytes, "request body size limit in bytes")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		logMode   = fs.String("log", "off", "access log format: off, text or json (one line per request, on stderr)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (own listener; empty disables)")

		rate        = fs.Float64("rate", 0, "global admission rate over compile/match/validate, requests/second (0 disables)")
		burst       = fs.Int("burst", 1, "global rate-bucket depth: requests admitted back-to-back after idle")
		schemaRate  = fs.Float64("schema-rate", 0, "per-schema validate rate, requests/second (0 disables)")
		schemaBurst = fs.Int("schema-burst", 1, "per-schema rate-bucket depth")
		maxInflight = fs.Int("max-inflight", 0, "max concurrently executing requests per endpoint class (0 disables)")
		compileTO   = fs.Duration("compile-timeout", 0, "per-request compile budget (0 disables)")
		validateTO  = fs.Duration("validate-timeout", 0, "per-request validation budget; clients may tighten it with X-Timeout-Ms (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	accessLog, err := buildAccessLog(*logMode, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 2
	}

	srv := server.New(server.Config{
		Cache:        dregex.NewCache(*cacheSize),
		MaxBodyBytes: *maxBody,
		AccessLog:    accessLog,
		Limits: server.Limits{
			Rate:            *rate,
			Burst:           *burst,
			SchemaRate:      *schemaRate,
			SchemaBurst:     *schemaBurst,
			MaxInflight:     *maxInflight,
			CompileTimeout:  *compileTO,
			ValidateTimeout: *validateTO,
		},
	})
	hs := srv.NewHTTPServer(*addr)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "error:", err)
		return 1
	}
	// The resolved address line is the startup handshake: tooling (the
	// smoke test, scripts) reads it to learn the port when -addr :0.
	fmt.Fprintf(stdout, "dregexd listening on %s\n", ln.Addr())

	if *pprofAddr != "" {
		pln, perr := net.Listen("tcp", *pprofAddr)
		if perr != nil {
			fmt.Fprintln(stderr, "error:", perr)
			return 1
		}
		fmt.Fprintf(stdout, "dregexd pprof on %s\n", pln.Addr())
		go http.Serve(pln, pprofMux())
		defer pln.Close()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "dregexd: %v: draining (max %s)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "shutdown:", err)
			return 1
		}
		return 0
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		return 0
	}
}

// buildAccessLog maps the -log flag to a slog.Logger on w (nil for "off",
// which keeps the server's logging branch false — zero overhead).
func buildAccessLog(mode string, w *os.File) (*slog.Logger, error) {
	switch mode {
	case "off", "":
		return nil, nil
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log mode %q (want off, text or json)", mode)
}

// pprofMux routes the net/http/pprof handlers on a dedicated mux (the
// package's init also touches DefaultServeMux, but the daemon never
// serves that) — the profiler binds only to the -pprof listener, never
// the public address.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
