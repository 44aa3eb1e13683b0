package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dregex/client"
	"dregex/internal/server"
)

// countingListener wraps the server's listener to account wire bytes and
// accepted connections. Every workload reuses keep-alive connections, one
// per configured client, so accepting more than that means the harness
// reconnected and its latencies would include connection set-up.
type countingListener struct {
	net.Listener
	accepted      atomic.Int64
	read, written atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.written.Add(int64(n))
	return n, err
}

var bgCtx = context.Background()

// idHeader carries the benchmark's request id from the client span to the
// server-side middleware span in traced runs.
const idHeader = "X-Bench-Id"

// spanLog holds the server-side spans of a traced run, indexed by request
// id: start and end in nanoseconds since the log's epoch. Spans stay in
// memory until the run ends.
type spanLog struct {
	epoch      time.Time
	start, end []atomic.Int64
}

func newSpanLog(n int) *spanLog {
	return &spanLog{epoch: time.Now(), start: make([]atomic.Int64, n), end: make([]atomic.Int64, n)}
}

func (s *spanLog) now() int64 { return int64(time.Since(s.epoch)) }

// middleware records one span per request around the server's handler.
func (s *spanLog) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := s.now()
		next.ServeHTTP(w, r)
		id, err := strconv.Atoi(r.Header.Get(idHeader))
		if err == nil && id >= 0 && id < len(s.start) {
			s.start[id].Store(t0)
			s.end[id].Store(s.now())
		}
	})
}

// harness is an in-process dregexd: server.New with the daemon's defaults
// (server.Config{}, no limits, no access log) behind NewHTTPServer's
// production timeouts, on a loopback listener.
type harness struct {
	hs    *http.Server
	ln    *countingListener
	base  string
	done  chan struct{}
	conns int // clients handed out so far
	// earlyCloses counts response bodies closed before EOF (idTransport).
	earlyCloses atomic.Int64
}

func startHarness(spans *spanLog) (*harness, error) {
	srv := server.New(server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{ln: &countingListener{Listener: l}, done: make(chan struct{})}
	h.hs = srv.NewHTTPServer("")
	if spans != nil {
		h.hs.Handler = spans.middleware(h.hs.Handler)
	}
	h.base = "http://" + l.Addr().String()
	go func() {
		defer close(h.done)
		if err := h.hs.Serve(h.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("serve:", err)
		}
	}()
	return h, nil
}

// idTransport stamps each request with the id its worker set last, and
// counts response bodies the client closes before reading them to the
// end: net/http cannot reuse such a connection, so each one costs the
// client a new connection.
type idTransport struct {
	http.RoundTripper
	id          int
	earlyCloses *atomic.Int64
}

func (t *idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.id >= 0 {
		r.Header.Set(idHeader, strconv.Itoa(t.id))
	}
	resp, err := t.RoundTripper.RoundTrip(r)
	if err == nil {
		resp.Body = &drainWatch{ReadCloser: resp.Body, early: t.earlyCloses}
	}
	return resp, err
}

// drainWatch records whether its body reached EOF before Close.
type drainWatch struct {
	io.ReadCloser
	early *atomic.Int64
	eof   bool
}

func (d *drainWatch) Read(p []byte) (int, error) {
	n, err := d.ReadCloser.Read(p)
	if err == io.EOF {
		d.eof = true
	}
	return n, err
}

func (d *drainWatch) Close() error {
	if !d.eof {
		d.early.Add(1)
	}
	return d.ReadCloser.Close()
}

// conn is one client with its own single keep-alive connection.
type conn struct {
	*client.Client
	tr  *idTransport
	raw *http.Transport
}

func (h *harness) newConn() *conn {
	h.conns++
	raw := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	tr := &idTransport{RoundTripper: raw, id: -1, earlyCloses: &h.earlyCloses}
	return &conn{Client: client.New(h.base, &http.Client{Transport: tr}), tr: tr, raw: raw}
}

// checkConns fails when the server accepted more connections than the
// clients handed out, plus one for every response body the client closed
// unread. Those reconnects belong to the code under test and stay in its
// latencies; any other one would be a keep-alive bug of the harness.
func (h *harness) checkConns() error {
	n, early := h.ln.accepted.Load(), h.earlyCloses.Load()
	if n > int64(h.conns)+early {
		return fmt.Errorf("server accepted %d connections for %d keep-alive clients and %d bodies closed unread", n, h.conns, early)
	}
	return nil
}

func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		h.hs.Close()
	}
	<-h.done
}

func (c *conn) close() { c.raw.CloseIdleConnections() }

// putAll registers schemas through c and checks each registration's
// warnings against the models built nondeterministic.
func putAll(ctx context.Context, c *conn, schemas []*schema) error {
	for _, s := range schemas {
		info, err := c.PutSchema(ctx, s.name, s.kind, s.source())
		if err != nil {
			return fmt.Errorf("put %s: %w", s.name, err)
		}
		if err := checkWarnings(s, info.Warnings); err != nil {
			return err
		}
	}
	return nil
}
