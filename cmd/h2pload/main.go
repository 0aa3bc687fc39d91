// Command h2pload is the run server's load harness: N tenants submit M runs
// each against an h2pserved instance, wait for completion, and verify every
// returned result hash against a locally computed reference — proving the
// server returns bit-identical results under multi-tenant concurrency.
//
//	h2pload -spawn -tenants 8 -runs 55 -submit-burst 50 \
//	    -expect-accepted 50 -expect-rejected 5
//
// -spawn self-hosts an in-process server on a loopback port, with the quota
// configured so the acceptance arithmetic is deterministic: a submit-burst
// with no refill gives every tenant exactly that many admissions, ever, so
// the expected accepted/rejected split is independent of timing. Against an
// external server (-server URL) the quota flags are ignored and the
// expectation flags assert whatever that server is configured for.
//
// The tool exits non-zero on any hash mismatch, any accepted run that fails
// to reach a terminal state (a dropped run), any rejection without a
// Retry-After header, or any violated -expect-* count.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/serve"
	"github.com/h2p-sim/h2p/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// profile is the parsed load shape.
type profile struct {
	server  string
	tenants int
	runs    int

	servers   int
	intervals int
	shards    int

	expectAccepted int
	expectRejected int
	timeout        time.Duration
}

// classes and schemes the profile cycles through per submission index, so the
// run mix exercises both schedulers and all three workload classes.
var (
	loadClasses = []string{"drastic", "irregular", "common"}
	loadSchemes = []string{"original", "loadbalance"}
)

// requestFor builds the i-th submission's run request. The mix is a pure
// function of the index, so every tenant submits the same sequence and the
// local reference cache stays small.
func (p *profile) requestFor(i int) *serve.RunRequest {
	return &serve.RunRequest{
		Trace: serve.TraceSpec{
			Class:     loadClasses[i%len(loadClasses)],
			Servers:   p.servers,
			Seed:      int64(1 + i%5),
			Intervals: p.intervals,
		},
		Scheme: loadSchemes[i%len(loadSchemes)],
		Shards: p.shards * (i % 2), // every other request sets the shards alias
	}
}

// referenceCache computes expected result hashes locally, once per distinct
// request, on a private fleet — the same library path the server runs.
type referenceCache struct {
	mu    sync.Mutex
	fleet *core.Fleet
	byKey map[string]string
}

func newReferenceCache() *referenceCache {
	return &referenceCache{fleet: core.NewFleet(), byKey: make(map[string]string)}
}

// hashFor returns the canonical result hash for the request body (its JSON
// serves as the cache key).
func (rc *referenceCache) hashFor(body []byte) (string, error) {
	key := string(body)
	rc.mu.Lock()
	if h, ok := rc.byKey[key]; ok {
		rc.mu.Unlock()
		return h, nil
	}
	rc.mu.Unlock()
	req, err := serve.ParseRunRequest(bytes.NewReader(body), 0)
	if err != nil {
		return "", fmt.Errorf("reference parse: %w", err)
	}
	res, err := serve.Execute(context.Background(), rc.fleet, req, "", nil)
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}
	b, err := serve.MarshalResult(res)
	if err != nil {
		return "", err
	}
	h := serve.HashBytes(b)
	rc.mu.Lock()
	rc.byKey[key] = h
	rc.mu.Unlock()
	return h, nil
}

// tenantReport is one tenant's tally after its submission loop completes.
type tenantReport struct {
	tenant     string
	accepted   int
	rejected   int // 429s
	unexpected []string
	dropped    []string
	mismatched []string
	latencies  []time.Duration
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("h2pload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := &profile{}
	fs.StringVar(&p.server, "server", "", "server base URL (e.g. http://127.0.0.1:8080); empty requires -spawn")
	spawn := fs.Bool("spawn", false, "self-host an in-process server on a loopback port")
	fs.IntVar(&p.tenants, "tenants", 8, "concurrent tenants")
	fs.IntVar(&p.runs, "runs", 55, "submissions per tenant")
	fs.IntVar(&p.servers, "servers", 60, "servers per synthetic trace")
	fs.IntVar(&p.intervals, "intervals", 32, "intervals per synthetic trace")
	fs.IntVar(&p.shards, "shards", 2, "shards field (an alias for workers) sent with every other request (0 = never)")
	fs.IntVar(&p.expectAccepted, "expect-accepted", 0, "assert exactly this many accepted submissions per tenant (0 = don't)")
	fs.IntVar(&p.expectRejected, "expect-rejected", 0, "assert exactly this many 429 rejections per tenant (0 = don't)")
	fs.DurationVar(&p.timeout, "timeout", 5*time.Minute, "overall deadline for the load run")
	submitBurst := fs.Float64("submit-burst", 0, "spawned server: per-tenant submission allowance (no refill; 0 = unlimited)")
	maxConcurrent := fs.Int("max-concurrent", 2, "spawned server: per-tenant concurrent runs")
	executors := fs.Int("executors", 0, "spawned server: executor pool size (0 = all CPUs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if p.tenants < 1 || p.runs < 1 {
		fmt.Fprintln(stderr, "h2pload: -tenants and -runs must be positive")
		return 2
	}

	var spawned *serve.Server
	var srv *telemetry.Server
	if *spawn {
		if p.server != "" {
			fmt.Fprintln(stderr, "h2pload: -spawn and -server are mutually exclusive")
			return 2
		}
		spawned = serve.NewServer(serve.Config{
			Queue:     p.tenants*p.runs + 16,
			Executors: *executors,
			Quota: serve.Quota{
				MaxConcurrent: *maxConcurrent,
				SubmitBurst:   *submitBurst,
			},
		})
		var err error
		srv, err = telemetry.ServeHandler("127.0.0.1:0", spawned.Handler())
		if err != nil {
			fmt.Fprintln(stderr, "h2pload:", err)
			return 1
		}
		p.server = "http://" + srv.Addr()
		fmt.Fprintf(stderr, "h2pload: spawned server at %s\n", p.server)
	}
	if p.server == "" {
		fmt.Fprintln(stderr, "h2pload: -server URL or -spawn required")
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	code := drive(ctx, p, stdout, stderr)

	if spawned != nil {
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := spawned.Drain(dctx); err != nil {
			fmt.Fprintln(stderr, "h2pload: drain:", err)
			code = 1
		}
		dcancel()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(sctx) //nolint:errcheck // best-effort listener drain
		scancel()
	}
	return code
}

// drive runs the load profile and prints the report; returns the exit code.
func drive(ctx context.Context, p *profile, stdout, stderr io.Writer) int {
	refs := newReferenceCache()
	client := &http.Client{}
	reports := make([]*tenantReport, p.tenants)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < p.tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			reports[t] = driveTenant(ctx, p, client, refs, fmt.Sprintf("tenant%02d", t))
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Fold the per-tenant tallies.
	var accepted, rejected, violations int
	var allLat []time.Duration
	for _, r := range reports {
		accepted += r.accepted
		rejected += r.rejected
		allLat = append(allLat, r.latencies...)
		for _, msg := range r.unexpected {
			violations++
			fmt.Fprintf(stderr, "h2pload: %s: %s\n", r.tenant, msg)
		}
		for _, id := range r.dropped {
			violations++
			fmt.Fprintf(stderr, "h2pload: %s: run %s never reached a terminal state (dropped)\n", r.tenant, id)
		}
		for _, id := range r.mismatched {
			violations++
			fmt.Fprintf(stderr, "h2pload: %s: run %s result hash does not match the local reference\n", r.tenant, id)
		}
		if p.expectAccepted > 0 && r.accepted != p.expectAccepted {
			violations++
			fmt.Fprintf(stderr, "h2pload: %s: accepted %d runs, expected exactly %d\n", r.tenant, r.accepted, p.expectAccepted)
		}
		if p.expectRejected > 0 && r.rejected != p.expectRejected {
			violations++
			fmt.Fprintf(stderr, "h2pload: %s: got %d quota rejections, expected exactly %d\n", r.tenant, r.rejected, p.expectRejected)
		}
	}

	sort.Slice(allLat, func(i, j int) bool { return allLat[i] < allLat[j] })
	fmt.Fprintf(stdout, "h2pload: %d tenants x %d submissions in %s\n", p.tenants, p.runs, elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  accepted  %d\n  rejected  %d (429)\n", accepted, rejected)
	if len(allLat) > 0 {
		fmt.Fprintf(stdout, "  latency   p50 %s  p95 %s  p99 %s (submit to done)\n",
			percentile(allLat, 0.50).Round(time.Millisecond),
			percentile(allLat, 0.95).Round(time.Millisecond),
			percentile(allLat, 0.99).Round(time.Millisecond))
	}
	if violations > 0 {
		fmt.Fprintf(stdout, "  FAIL      %d violations\n", violations)
		return 1
	}
	fmt.Fprintf(stdout, "  verified  %d result hashes against local reference, zero mismatches, zero drops\n", accepted)
	return 0
}

// percentile reads the q-quantile from a sorted latency slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// driveTenant submits the profile sequentially as one tenant (sequential
// submission keeps the token-bucket arithmetic exact), then waits out every
// accepted run and verifies its result hash.
func driveTenant(ctx context.Context, p *profile, client *http.Client, refs *referenceCache, name string) *tenantReport {
	rep := &tenantReport{tenant: name}
	type acceptedRun struct {
		id       string
		body     []byte
		submitAt time.Time
	}
	var acceptedRuns []acceptedRun

	for i := 0; i < p.runs; i++ {
		body, err := json.Marshal(p.requestFor(i))
		if err != nil {
			rep.unexpected = append(rep.unexpected, "marshal: "+err.Error())
			return rep
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.server+"/api/v1/runs", bytes.NewReader(body))
		if err != nil {
			rep.unexpected = append(rep.unexpected, err.Error())
			return rep
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", name)
		resp, err := client.Do(req)
		if err != nil {
			rep.unexpected = append(rep.unexpected, "submit: "+err.Error())
			return rep
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var status serve.RunStatus
			if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
				rep.unexpected = append(rep.unexpected, "submit response: "+err.Error())
				resp.Body.Close()
				return rep
			}
			rep.accepted++
			acceptedRuns = append(acceptedRuns, acceptedRun{id: status.ID, body: body, submitAt: time.Now()})
		case http.StatusTooManyRequests:
			rep.rejected++
			if resp.Header.Get("Retry-After") == "" {
				rep.unexpected = append(rep.unexpected, "429 without Retry-After header")
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // body content irrelevant
		default:
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			rep.unexpected = append(rep.unexpected, fmt.Sprintf("submit %d: unexpected status %d: %s", i, resp.StatusCode, b))
		}
		resp.Body.Close()
	}

	for _, ar := range acceptedRuns {
		state, err := waitTerminal(ctx, client, p.server, ar.id)
		if err != nil {
			rep.unexpected = append(rep.unexpected, fmt.Sprintf("run %s: %v", ar.id, err))
			continue
		}
		if state != serve.StateDone {
			rep.dropped = append(rep.dropped, ar.id+" ("+state+")")
			continue
		}
		rep.latencies = append(rep.latencies, time.Since(ar.submitAt))
		want, err := refs.hashFor(ar.body)
		if err != nil {
			rep.unexpected = append(rep.unexpected, err.Error())
			continue
		}
		got, err := fetchResultHash(ctx, client, p.server, ar.id)
		if err != nil {
			rep.unexpected = append(rep.unexpected, fmt.Sprintf("run %s: %v", ar.id, err))
			continue
		}
		if got != want {
			rep.mismatched = append(rep.mismatched, ar.id)
		}
	}
	return rep
}

// waitTerminal long-polls a run until it reaches a terminal state. Any
// reply but 200 fails at once with its status and the server's error text:
// an error body carries no state, so polling on would only spin.
func waitTerminal(ctx context.Context, client *http.Client, server, id string) (string, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, server+"/api/v1/runs/"+id+"?wait=30s", nil)
		if err != nil {
			return "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return "", fmt.Errorf("status poll: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		var status serve.RunStatus
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch status.State {
		case serve.StateDone, serve.StateFailed, serve.StateCancelled:
			return status.State, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
	}
}

// fetchResultHash downloads a run's canonical result JSON and hashes it —
// the bytes, not the header, so the check covers the full document.
func fetchResultHash(ctx context.Context, client *http.Client, server, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, server+"/api/v1/runs/"+id+"/result", nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("result fetch: status %d: %s", resp.StatusCode, b)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	h := serve.HashBytes(body)
	if hdr := resp.Header.Get("X-Result-Hash"); hdr != "" && hdr != h {
		return "", fmt.Errorf("result fetch: X-Result-Hash %s does not match body hash %s", hdr, h)
	}
	return h, nil
}
