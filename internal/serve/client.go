package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"facile/internal/cachestore"
)

// Client is a minimal JSON client for the job API, used by fsweep -server
// and the end-to-end tests.
type Client struct {
	Base string // server base URL, e.g. "http://127.0.0.1:8764"
	HC   *http.Client
}

// NewClient builds a client for the given base URL.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), HC: &http.Client{}}
}

// StatusError is a non-2xx API response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: HTTP %d: %s", e.Code, e.Msg)
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HC.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeStatusError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job.
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Status fetches one job.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// List fetches all jobs.
func (c *Client) List(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Health fetches the server's /healthz body (load fields included).
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches the raw /v1/metrics body (an obs.Registry WriteJSON
// document, parseable with obs.ParseSnapshot).
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	return c.raw(ctx, http.MethodGet, "/v1/metrics", nil)
}

// ExportCache fetches one verified warm-cache record (the raw FACSTOR1
// blob) from the server's persistent store.
func (c *Client) ExportCache(ctx context.Context, key string) ([]byte, error) {
	return c.raw(ctx, http.MethodGet, "/v1/caches/"+key, nil)
}

// ListCaches fetches the persisted warm-cache record metadata from the
// server's store.
func (c *Client) ListCaches(ctx context.Context) ([]cachestore.Meta, error) {
	var out []cachestore.Meta
	err := c.do(ctx, http.MethodGet, "/v1/caches", nil, &out)
	return out, err
}

// ImportCache installs a record exported from another node.
func (c *Client) ImportCache(ctx context.Context, key string, blob []byte) error {
	_, err := c.raw(ctx, http.MethodPut, "/v1/caches/"+key, blob)
	return err
}

// DeleteCache removes one persisted record from the server's store.
func (c *Client) DeleteCache(ctx context.Context, key string) error {
	return c.do(ctx, http.MethodDelete, "/v1/caches/"+key, nil, nil)
}

// raw performs a request whose body is opaque bytes rather than JSON.
// Like do, it never leaks the response body: every path below the Do
// call runs under the deferred Close.
func (c *Client) raw(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.HC.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, decodeStatusError(resp)
	}
	return io.ReadAll(resp.Body)
}

// decodeStatusError turns a non-2xx response into a *StatusError,
// consuming (but not closing) the body.
func decodeStatusError(resp *http.Response) error {
	var ae apiError
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&ae) == nil && ae.Error != "" {
		msg = ae.Error
	}
	return &StatusError{Code: resp.StatusCode, Msg: msg}
}

// WaitJob follows the job's NDJSON event stream until the terminal
// "status" line and returns it — the push-based alternative to the
// polling Wait. onSample, when non-nil, receives each raw event line
// before the terminal status (samples, verbatim, newline-stripped).
//
// The stream body is closed on every path out of this function,
// including the early ones: a non-2xx response, a line-decode failure,
// and a stream that ends before its terminal status line. A leak here is
// quiet but fatal over time — each leaked body pins a connection — so
// client_test.go holds this method (and every other client method) to a
// counting transport.
func (c *Client) WaitJob(ctx context.Context, id string, onSample func(line []byte)) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.HC.Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeStatusError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev eventLine
		if err := json.Unmarshal(line, &ev); err != nil {
			return JobStatus{}, fmt.Errorf("serve: events stream for %s: %w", id, err)
		}
		if ev.Type == "status" && ev.Status != nil {
			return *ev.Status, nil
		}
		if onSample != nil {
			onSample(append([]byte(nil), line...))
		}
	}
	if err := sc.Err(); err != nil {
		return JobStatus{}, fmt.Errorf("serve: events stream for %s: %w", id, err)
	}
	return JobStatus{}, fmt.Errorf("serve: events stream for %s ended before the terminal status line", id)
}

// Wait polls until the job reaches a terminal state (or ctx expires) and
// returns its final status.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled, StateRequeued:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}
