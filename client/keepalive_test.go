package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestKeepAliveAfterChunkedReport checks that a decoded response body is
// read to its end before it is closed: 20 validate calls whose chunked
// error reports run past 4 KB must all travel over one connection.
func TestKeepAliveAfterChunkedReport(t *testing.T) {
	report := ValidateResponse{Schema: "s"}
	for i := 0; i < 100; i++ {
		report.Errors = append(report.Errors, ValidationError{
			Path: fmt.Sprintf("/r/item[%d]", i), Element: "item",
			Msg: "child <x> violates content model (a, b)", Line: i + 1, Col: 3,
		})
	}
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(report)
	}))
	var conns atomic.Int64
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	// The premise, checked on a connection of its own: the report is
	// chunked and over 4 KB.
	probe := &http.Transport{}
	defer probe.CloseIdleConnections()
	resp, err := (&http.Client{Transport: probe}).Post(hs.URL, "application/xml", nil)
	if err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil || len(raw) <= 4<<10 || len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("report: %d bytes, transfer encoding %v, err %v; want a chunked report over 4 KB",
			len(raw), resp.TransferEncoding, err)
	}
	conns.Store(0)

	c := New(hs.URL, hs.Client())
	for i := 0; i < 20; i++ {
		got, err := c.Validate(context.Background(), "s", []byte("<r/>"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Errors) != len(report.Errors) {
			t.Fatalf("call %d: %d errors, want %d", i, len(got.Errors), len(report.Errors))
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("20 validate calls opened %d connections, want 1", n)
	}
}
