package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/h2p-sim/h2p/internal/serve"
)

// rescueAfter is how long the client waits without any terminal record
// before it asks the server directly about the runs still pending: the event
// stream drops records for a subscriber that falls behind.
const rescueAfter = 500 * time.Millisecond

// flight is one submitted mix item and the runs the server made of it.
type flight struct {
	item mixItem
	due  time.Time
	reqs []*serve.RunRequest // expanded requests, aligned with runs
	runs []string            // run ids
	left int                 // runs not yet terminal
	last time.Time           // latest run completion
	// failed is set when any run did not complete.
	failed bool
}

// client drives the mix over at most two connections: the event stream
// (watch) and this request connection. Sending and completion handling
// happen on one goroutine; result fetches wait until a phase has ended, so
// the open loop's sends only ever wait on other sends.
type client struct {
	http   *http.Client
	base   string
	refs   map[string]string
	t      *tally
	events chan completion

	byRun map[string]*flight
	early map[string]completion // completions seen before their POST returned
	done  []*flight             // terminal, results not yet verified

	submitMs, fetchMs, lagMs []float64
	rejected429, rejected503 int
	rescued                  int
	pacedRuns                []string
	// served and servedWork count the runs, and their server-intervals,
	// the server completed.
	served     int
	servedWork float64
}

// submit posts one item and registers its runs; a refusal is a failed
// operation, not an error.
func (c *client) submit(ctx context.Context, f *flight) (bool, error) {
	path := "/api/v1/runs"
	if f.item.Kind == "sweep" {
		path = "/api/v1/sweeps"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(f.item.Body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", f.item.Tenant)
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.submitMs = append(c.submitMs, millis(time.Since(t0)))
	if err != nil {
		return false, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		c.rejected429++
		c.t.fail("%s submit refused: 429", f.item.Kind)
		return false, nil
	case http.StatusServiceUnavailable:
		c.rejected503++
		c.t.fail("%s submit refused: 503", f.item.Kind)
		return false, nil
	default:
		c.t.fail("%s submit: status %d: %s", f.item.Kind, resp.StatusCode, body)
		return false, nil
	}
	if f.reqs, err = f.item.expand(); err != nil {
		return false, err
	}
	if f.item.Kind == "sweep" {
		var st serve.SweepStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return false, err
		}
		f.runs = st.Runs
	} else {
		var st serve.RunStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return false, err
		}
		f.runs = []string{st.ID}
	}
	if len(f.runs) != len(f.reqs) {
		return false, fmt.Errorf("server accepted %d runs for a %d-run %s", len(f.runs), len(f.reqs), f.item.Kind)
	}
	f.left = len(f.runs)
	for _, id := range f.runs {
		c.byRun[id] = f
	}
	for _, id := range f.runs {
		if e, ok := c.early[id]; ok {
			delete(c.early, id)
			c.complete(e)
		}
	}
	return true, nil
}

// complete applies one terminal record.
func (c *client) complete(e completion) {
	f, ok := c.byRun[e.id]
	if !ok {
		c.early[e.id] = e
		return
	}
	delete(c.byRun, e.id)
	if !e.ok {
		f.failed = true
		c.t.fail("%s run %s did not complete", f.item.Kind, e.id)
	}
	for i, id := range f.runs {
		if id == e.id && e.ok {
			c.served++
			c.servedWork += float64(f.reqs[i].Trace.Servers) * float64(f.reqs[i].Trace.Intervals)
		}
	}
	if e.at.After(f.last) {
		f.last = e.at
	}
	if f.left--; f.left == 0 {
		c.done = append(c.done, f)
	}
}

// await handles terminal records until deadline, returning after the first
// one; it reports whether one arrived.
func (c *client) await(ctx context.Context, deadline time.Time) (bool, error) {
	select {
	case e := <-c.events:
		c.complete(e)
		return true, nil
	default:
	}
	wait := time.Until(deadline)
	if wait <= 0 {
		return false, nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case e := <-c.events:
		c.complete(e)
		return true, nil
	case <-timer.C:
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// rescue asks the server for the state of every pending run whose terminal
// record the event stream has not delivered, waiting for each to finish.
func (c *client) rescue(ctx context.Context) error {
	for id := range c.byRun {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/runs/"+id+"?wait=30s", nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		var st serve.RunStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("run %s status: %w", id, err)
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCancelled:
			c.rescued++
			c.complete(completion{id: id, ok: st.State == serve.StateDone, at: time.Now()})
		default:
			c.t.fail("run %s still %s after 30s", id, st.State)
			delete(c.byRun, id)
		}
	}
	return nil
}

// next waits for the next terminal record, rescuing stalled runs.
func (c *client) next(ctx context.Context) error {
	got, err := c.await(ctx, time.Now().Add(rescueAfter))
	if err != nil || got {
		return err
	}
	// Drain whatever arrived in the meantime before asking the server.
	for len(c.events) > 0 {
		c.complete(<-c.events)
	}
	return c.rescue(ctx)
}

// settle waits until every submitted run is terminal, then fetches and
// checks every result.
func (c *client) settle(ctx context.Context) error {
	for len(c.byRun) > 0 {
		if err := c.next(ctx); err != nil {
			return err
		}
	}
	for _, f := range c.done {
		if err := c.verify(ctx, f); err != nil {
			return err
		}
	}
	c.done = c.done[:0]
	return nil
}

// verify fetches every result of a terminal item and checks its hash
// against the library reference.
func (c *client) verify(ctx context.Context, f *flight) error {
	if f.failed {
		return nil
	}
	for i, id := range f.runs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/runs/"+id+"/result", nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		c.fetchMs = append(c.fetchMs, millis(time.Since(t0)))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			c.t.fail("run %s result: status %d", id, resp.StatusCode)
			return nil
		}
		key, err := referenceKey(f.reqs[i])
		if err != nil {
			return err
		}
		if got, want := serve.HashBytes(body), c.refs[key]; got != want {
			c.t.fail("run %s (%s) result hash %s, library reference %s", id, f.item.Kind, got, want)
			return nil
		}
	}
	c.t.ok()
	return nil
}

// paced is the open loop: n items due at a fixed rate, each timed from its
// due time to the client seeing every run of it terminal. It returns the
// latencies of the items that completed.
func (c *client) paced(ctx context.Context, items []mixItem, cursor *int, rate float64, n int) ([]float64, error) {
	start := time.Now().Add(10 * time.Millisecond)
	flights := make([]*flight, 0, n)
	c.lagMs = c.lagMs[:0]
	c.pacedRuns = c.pacedRuns[:0]
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		for time.Until(due) > 0 {
			if _, err := c.await(ctx, due); err != nil {
				return nil, err
			}
		}
		f := &flight{item: items[*cursor%len(items)], due: due}
		*cursor++
		c.lagMs = append(c.lagMs, millis(time.Since(due)))
		ok, err := c.submit(ctx, f)
		if err != nil {
			return nil, err
		}
		if ok {
			flights = append(flights, f)
			c.pacedRuns = append(c.pacedRuns, f.runs...)
		}
	}
	if err := c.settle(ctx); err != nil {
		return nil, err
	}
	var lat []float64
	for _, f := range flights {
		if !f.failed {
			lat = append(lat, millis(f.last.Sub(f.due)))
		}
	}
	return lat, nil
}

// saturated is the closed loop: n items, saturatedOutstanding in flight, the
// next submitted as soon as one completes. It returns the runs and
// server-intervals completed and the time from the first send to the last
// completion.
func (c *client) saturated(ctx context.Context, items []mixItem, cursor *int, n int) (int, float64, time.Duration, error) {
	start := time.Now()
	var flights []*flight
	sent, inflight, finished := 0, 0, 0
	send := func() error {
		f := &flight{item: items[*cursor%len(items)]}
		*cursor++
		sent++
		ok, err := c.submit(ctx, f)
		if ok {
			inflight++
			flights = append(flights, f)
		}
		return err
	}
	for sent < n && inflight < saturatedOutstanding {
		if err := send(); err != nil {
			return 0, 0, 0, err
		}
	}
	for inflight > 0 {
		if err := c.next(ctx); err != nil {
			return 0, 0, 0, err
		}
		for finished < len(c.done) {
			finished++
			inflight--
			if sent < n {
				if err := send(); err != nil {
					return 0, 0, 0, err
				}
			}
		}
	}
	var runs int
	var work float64
	var end time.Time
	for _, f := range flights {
		if f.failed {
			continue
		}
		runs += len(f.runs)
		for _, r := range f.reqs {
			work += float64(r.Trace.Servers) * float64(r.Trace.Intervals)
		}
		if f.last.After(end) {
			end = f.last
		}
	}
	window := end.Sub(start)
	return runs, work, window, c.settle(ctx)
}

// statusLayers reads the paced runs' status timestamps (one list request)
// for the server-side queue wait and execution time.
func (c *client) statusLayers(ctx context.Context, v values) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/api/v1/runs", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var all []serve.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return fmt.Errorf("run list: %w", err)
	}
	byID := make(map[string]serve.RunStatus, len(all))
	for _, st := range all {
		byID[st.ID] = st
	}
	var queue, exec []float64
	for _, id := range c.pacedRuns {
		st, ok := byID[id]
		if !ok || st.State != serve.StateDone {
			continue
		}
		queue = append(queue, float64(st.StartedMS-st.SubmittedMS))
		exec = append(exec, float64(st.FinishedMS-st.StartedMS))
	}
	if len(queue) == 0 {
		return errors.New("no completed paced runs in the run list")
	}
	v["serve.queue_wait_ms_p50"] = percentile(queue, 0.50)
	v["serve.queue_wait_ms_p99"] = percentile(queue, 0.99)
	v["serve.exec_ms_p50"] = percentile(exec, 0.50)
	v["serve.exec_ms_p99"] = percentile(exec, 0.99)
	return nil
}
