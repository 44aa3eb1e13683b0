//go:build faultinject

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dregex/client"
	"dregex/internal/obs/obstest"
)

// TestDregexdChaos is the fault-injection suite (make chaos-smoke): it
// builds the real binary with the faultinject tag and the race detector,
// arms every fault point via DREGEX_FAULTS, and hammers it with
// concurrent traffic under tight admission limits while another goroutine
// hot-swaps the schema — then sends SIGTERM mid-load. The contract under
// all of that: every response is either a correct verdict or a
// well-formed error (429 sheds carry Retry-After; injected panics
// surface as structured 500s, never a dead process), the server never
// hangs, and it exits 0 when drained.
func TestDregexdChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping chaos suite")
	}
	bin := filepath.Join(t.TempDir(), "dregexd")
	build := exec.Command("go", "build", "-race", "-tags", "faultinject", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-rate", "400", "-burst", "20",
		"-schema-rate", "250", "-schema-burst", "10",
		"-max-inflight", "6",
		"-compile-timeout", "2s",
		"-validate-timeout", "250ms",
		"-drain", "10s",
	)
	// Every fault point armed, each on its own deterministic cadence:
	// stalled body reads, truncated documents, injected compile errors,
	// pool exhaustion, and a mid-validate panic.
	srv.Env = append(srv.Environ(), "DREGEX_FAULTS="+
		"validate.slow-read=every:7,delay:2ms;"+
		"validate.truncate=every:13,arg:24;"+
		"validate.panic=every:41;"+
		"compile.error=every:5;"+
		"pool.exhaust=every:3")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	srv.Stderr = &stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no startup line: %v", sc.Err())
	}
	addr := strings.TrimPrefix(sc.Text(), "dregexd listening on ")
	go func() {
		for sc.Scan() {
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := client.New("http://"+addr, &http.Client{Timeout: 10 * time.Second})
	schema := `<!ELEMENT note (to, body)>
<!ELEMENT to (#PCDATA)>
<!ELEMENT body (#PCDATA)>`
	if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(schema)); err != nil {
		t.Fatalf("PutSchema: %v", err)
	}

	goodDoc := `<note><to>alice</to><body>hello</body></note>`
	badDoc := `<note><body>hello</body><to>alice</to></note>`
	httpc := &http.Client{Timeout: 10 * time.Second}

	// checkResponse enforces the chaos contract on one exchange. sigSent
	// relaxes it to also allow transport errors: once SIGTERM lands the
	// listener closes, and refused connections are the OS's business, not
	// a server defect.
	var sigSent atomic.Bool
	var counts [6]atomic.Int64 // ok, invalid, docerr, shed, panic500, compileErr
	checkResponse := func(req *http.Request, wantValid bool, sigSent *atomic.Bool) error {
		resp, err := httpc.Do(req)
		if err != nil {
			if sigSent != nil && sigSent.Load() {
				return nil
			}
			return fmt.Errorf("transport: %w", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			if sigSent != nil && sigSent.Load() {
				return nil
			}
			return fmt.Errorf("reading body: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var vr client.ValidateResponse
			if req.URL.Path != "/v1/validate" {
				counts[0].Add(1)
				return nil
			}
			if err := json.Unmarshal(body, &vr); err != nil {
				return fmt.Errorf("200 with unparseable body %q: %w", body, err)
			}
			switch {
			case vr.DocError != "":
				// A truncated-body fault fired: the verdict is an honest
				// document error, not a false "valid".
				counts[2].Add(1)
			case vr.Valid != wantValid:
				return fmt.Errorf("wrong verdict: valid=%v want %v (%s)", vr.Valid, wantValid, body)
			case vr.Valid:
				counts[0].Add(1)
			default:
				counts[1].Add(1)
			}
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var er client.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				return fmt.Errorf("malformed %d shed body %q (err=%v)", resp.StatusCode, body, err)
			}
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				return fmt.Errorf("429 without Retry-After")
			}
			counts[3].Add(1)
			return nil
		case http.StatusInternalServerError:
			// The injected panic: recovered into a structured 500.
			var er client.ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				return fmt.Errorf("malformed 500 body %q (err=%v)", body, err)
			}
			counts[4].Add(1)
			return nil
		case http.StatusUnprocessableEntity:
			// The injected compile error.
			counts[5].Add(1)
			return nil
		}
		return fmt.Errorf("unexpected status %d: %s", resp.StatusCode, body)
	}

	// Hot-swap goroutine: re-registers the schema continuously while the
	// workers hammer it.
	swapStop := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-swapStop:
				return
			default:
			}
			if _, err := c.PutSchema(ctx, "note", client.KindDTD, []byte(schema)); err != nil {
				// Admin rides its own in-flight bound, so a shed swap is
				// fine; after the signal, so is a dropped connection.
				if !client.IsShed(err) && ctx.Err() == nil && !sigSent.Load() {
					t.Errorf("hot swap: %v", err)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Phase 1: concurrent overload, no signal — every worker checks every
	// response against the contract.
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				var req *http.Request
				var wantValid bool
				switch i % 3 {
				case 0:
					req, _ = http.NewRequestWithContext(ctx, "POST",
						"http://"+addr+"/v1/validate?schema=note", strings.NewReader(goodDoc))
					req.Header.Set("Content-Type", "application/xml")
					wantValid = true
				case 1:
					req, _ = http.NewRequestWithContext(ctx, "POST",
						"http://"+addr+"/v1/validate?schema=note", strings.NewReader(badDoc))
					req.Header.Set("Content-Type", "application/xml")
				case 2:
					req, _ = http.NewRequestWithContext(ctx, "POST",
						"http://"+addr+"/v1/compile",
						strings.NewReader(fmt.Sprintf(`{"expr": "(a%d, b*)"}`, i)))
					req.Header.Set("Content-Type", "application/json")
				}
				if err := checkResponse(req, wantValid, nil); err != nil {
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The fault cadences guarantee injections actually happened; fail
	// loudly if the suite silently stopped exercising them.
	if counts[5].Load() == 0 {
		t.Error("no injected compile errors observed")
	}
	if counts[2].Load() == 0 {
		t.Error("no truncated-document verdicts observed")
	}
	if counts[4].Load() == 0 {
		t.Error("no recovered panics observed")
	}
	if counts[3].Load() == 0 {
		t.Error("no load sheds observed — limits too loose for the offered load")
	}

	// The recovered panics are accounted on /metrics, and the process is
	// obviously still alive to serve the scrape.
	mreq, _ := http.NewRequestWithContext(ctx, "GET", "http://"+addr+"/metrics", nil)
	mresp, err := httpc.Do(mreq)
	if err != nil {
		t.Fatalf("metrics after chaos: %v", err)
	}
	exp, err := obstest.ParseExposition(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatalf("exposition after chaos: %v", err)
	}
	if v, ok := exp.Get("dregexd_panics_recovered_total"); !ok || int64(v) != counts[4].Load() {
		t.Errorf("panics_recovered_total = %v(%v), want %d", v, ok, counts[4].Load())
	}

	// Phase 2: SIGTERM lands while a second wave is in flight. In-flight
	// requests finish with contract-conforming responses; refused
	// connections after the signal are acceptable.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				req, _ := http.NewRequestWithContext(ctx, "POST",
					"http://"+addr+"/v1/validate?schema=note", strings.NewReader(goodDoc))
				req.Header.Set("Content-Type", "application/xml")
				if err := checkResponse(req, true, &sigSent); err != nil {
					t.Errorf("drain worker %d request %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	sigSent.Store(true)
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(swapStop)
	swapWG.Wait()

	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("server exit: %v\nstderr:\n%s", err, &stderr)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not drain within 20s")
	}
	// The race detector writes to stderr and forces a nonzero exit; a
	// clean exit plus no DATA RACE marker means the concurrent chaos ran
	// race-free.
	if s := stderr.String(); strings.Contains(s, "DATA RACE") || strings.Contains(s, "panic:") {
		t.Errorf("server stderr reports a race or unrecovered panic:\n%s", s)
	}

	t.Logf("chaos responses: ok=%d invalid=%d docerr=%d shed=%d panic500=%d compile422=%d",
		counts[0].Load(), counts[1].Load(), counts[2].Load(),
		counts[3].Load(), counts[4].Load(), counts[5].Load())
}
