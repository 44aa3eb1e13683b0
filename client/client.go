package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to a dregexd server. The zero value is not usable; construct
// with New. Client is safe for concurrent use.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8480"). httpClient nil selects http.DefaultClient; set
// one with a Timeout for production use.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status int
	Msg    string
	// RetryAfter is the server's retry hint on load-shed responses
	// (429/503), taken from retry_after_ms in the body or the Retry-After
	// header; 0 when the server sent neither.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dregexd: %d: %s", e.Status, e.Msg)
}

// IsNotFound reports whether err is an APIError with status 404.
func IsNotFound(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusNotFound
}

// IsShed reports whether err is a load-shed response (429/503) from the
// server's admission control — the class of error WithRetry retries.
func IsShed(err error) bool {
	ae, ok := err.(*APIError)
	return ok && retryable(ae.Status)
}

// do issues a request with the given body (nil for none) and decodes the
// JSON response into out (out nil discards the body). Load-shed responses
// are retried under the client's RetryPolicy; the body is a byte slice
// precisely so each attempt can replay it.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.do1(ctx, method, path, contentType, body, out)
		if err == nil {
			return nil
		}
		ae, ok := err.(*APIError)
		if !ok || !retryable(ae.Status) || attempt+1 >= c.retry.MaxAttempts {
			return err
		}
		if werr := c.retry.wait(ctx, attempt, ae.RetryAfter); werr != nil {
			return werr
		}
	}
}

// do1 is one request/response exchange.
func (c *Client) do1(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, r)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// Tell the server how much budget this attempt actually has, so a
	// doomed validation sheds server-side instead of burning a worker past
	// the point anyone is waiting (the server only tightens, never
	// loosens, its own budget with this).
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set("X-Timeout-Ms", strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er ErrorResponse
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er) == nil && er.Error != "" {
			msg = er.Error
		}
		ae := &APIError{Status: resp.StatusCode, Msg: msg}
		if er.RetryAfterMs > 0 {
			ae.RetryAfter = time.Duration(er.RetryAfterMs) * time.Millisecond
		} else if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			ae.RetryAfter = time.Duration(s) * time.Second
		}
		return ae
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drainClose discards what a decoder left unread of a response body (a
// JSON value's trailing newline, a chunked stream's terminator) before
// closing it: net/http reuses the keep-alive connection only for a body
// read to its end. The drain is bounded, so a huge or endless body costs
// a reconnect rather than an unbounded read.
func drainClose(body io.ReadCloser) {
	io.CopyN(io.Discard, body, maxDrain)
	body.Close()
}

// maxDrain bounds the unread response remainder drainClose discards.
const maxDrain = 64 << 10

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	data, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, "application/json", data, out)
}

// Compile asks the server for a determinism verdict (with counterexample
// diagnosis and structural stats) on one expression.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	var out CompileResponse
	if err := c.postJSON(ctx, "/v1/compile", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Match matches a batch of words against one expression.
func (c *Client) Match(ctx context.Context, req MatchRequest) (*MatchResponse, error) {
	var out MatchResponse
	if err := c.postJSON(ctx, "/v1/match", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Validate validates an XML document against the registered schema named
// schema, streaming the document as a raw body (the server's
// allocation-lean path).
func (c *Client) Validate(ctx context.Context, schema string, doc []byte) (*ValidateResponse, error) {
	var out ValidateResponse
	path := "/v1/validate?schema=" + url.QueryEscape(schema)
	if err := c.do(ctx, http.MethodPost, path, "application/xml", doc, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PutSchema registers (or atomically hot-swaps) a schema under name. kind
// is KindDTD or KindXSD; empty lets the server sniff it from the source.
func (c *Client) PutSchema(ctx context.Context, name, kind string, source []byte) (*SchemaInfo, error) {
	path := "/v1/schemas/" + url.PathEscape(name)
	if kind != "" {
		path += "?kind=" + url.QueryEscape(kind)
	}
	var out SchemaInfo
	if err := c.do(ctx, http.MethodPut, path, "application/xml", source, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetSchema returns metadata for one registered schema.
func (c *Client) GetSchema(ctx context.Context, name string) (*SchemaInfo, error) {
	var out SchemaInfo
	if err := c.do(ctx, http.MethodGet, "/v1/schemas/"+url.PathEscape(name), "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteSchema removes a registered schema; in-flight validations against
// it finish undisturbed.
func (c *Client) DeleteSchema(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/schemas/"+url.PathEscape(name), "", nil, nil)
}

// Schemas lists all registered schemas.
func (c *Client) Schemas(ctx context.Context) (*SchemaList, error) {
	var out SchemaList
	if err := c.do(ctx, http.MethodGet, "/v1/schemas", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats returns the server's cache and per-endpoint counters.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
