package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/serve"
	"github.com/h2p-sim/h2p/internal/trace"
)

const (
	// Small runs are the load-check shape.
	smallServers, smallIntervals = 60, 24
	// mixBlock requests hold exactly mixPaper paper-scale runs and mixSweeps
	// sweeps; the rest are small runs. Small runs use mixTraceSeeds trace
	// seeds; paper-scale runs use paperTraceSeed.
	mixBlock, mixPaper, mixSweeps = 40, 2, 1
	mixItems                      = 8000
	mixTraceSeeds                 = 4
	paperTraceSeed                = 1
	serveExecutors                = 2
	// serveSetups is how many server starts and stops a run measures for
	// setup_s.
	serveSetups = 15
	// saturatedOutstanding is the closed loop's requests in flight: enough
	// that both executors always have queued work.
	saturatedOutstanding = 6
	// lagBoundMs is the open-loop generator's p99 lateness bound: past it the
	// paced phase measured the generator, not the server, and is invalid.
	lagBoundMs = 50
	// pacedAttempts is how many times an invalid paced phase is rerun.
	pacedAttempts = 2
	// serveDeadline bounds the whole workload so a hung server cannot hold
	// the benchmark past its time limit.
	serveDeadline = 150 * time.Second
)

var (
	mixClasses = []string{"drastic", "irregular", "common"}
	mixSchemes = []string{"original", "loadbalance"}
	mixTenants = []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}
)

// mixItem is one request of the serve-mixed traffic.
type mixItem struct {
	Kind   string          `json:"kind"` // small, paper or sweep
	Tenant string          `json:"tenant"`
	Body   json.RawMessage `json:"body"`
}

// buildMix draws the seeded request mix. Every kind of request cycles
// through a fixed deck of variants (class x scheme x trace seed x sharding)
// that the seed shuffles, so every seed sends the same work in a different
// order.
func buildMix(seed int64, sc scale) ([]mixItem, error) {
	rng := rand.New(rand.NewSource(seed))
	// Paper-scale runs and sweeps sit at fixed, evenly spaced positions of
	// every block, so the queueing they cause does not depend on the seed.
	kinds := make([]string, mixBlock)
	for i := range kinds {
		kinds[i] = "small"
	}
	for i := 0; i < mixPaper; i++ {
		kinds[i*mixBlock/mixPaper] = "paper"
	}
	for i := 0; i < mixSweeps; i++ {
		kinds[(2*i+1)*mixBlock/(2*mixSweeps)] = "sweep"
	}
	var small, paper, sweep []any
	for _, class := range mixClasses {
		for _, scheme := range mixSchemes {
			for _, shards := range []int{0, 2} {
				for ts := int64(1); ts <= mixTraceSeeds; ts++ {
					small = append(small, serve.RunRequest{
						Trace:  serve.TraceSpec{Class: class, Servers: smallServers, Seed: ts, Intervals: smallIntervals},
						Scheme: scheme, Shards: shards,
					})
				}
				paper = append(paper, serve.RunRequest{
					Trace:  serve.TraceSpec{Class: class, Servers: sc.paperServers, Seed: paperTraceSeed, Intervals: sc.paperIntervals},
					Scheme: scheme, Shards: shards,
				})
			}
		}
	}
	for ts := int64(1); ts <= mixTraceSeeds; ts++ {
		base := serve.RunRequest{
			Trace:  serve.TraceSpec{Class: mixClasses[0], Servers: smallServers, Seed: ts, Intervals: smallIntervals},
			Scheme: mixSchemes[0],
		}
		sweep = append(sweep, serve.SweepRequest{Base: base, Classes: mixClasses, Schemes: mixSchemes})
	}
	decks := map[string]*deck{"small": {cards: small}, "paper": {cards: paper}, "sweep": {cards: sweep}}
	items := make([]mixItem, 0, mixItems)
	for len(items) < mixItems {
		for _, k := range kinds {
			b, err := json.Marshal(decks[k].draw(rng))
			if err != nil {
				return nil, err
			}
			items = append(items, mixItem{Kind: k, Tenant: mixTenants[len(items)%len(mixTenants)], Body: b})
		}
	}
	return items, nil
}

// deck deals its cards in a freshly shuffled order, cycle after cycle.
type deck struct {
	cards []any
	next  int
}

func (d *deck) draw(rng *rand.Rand) any {
	if d.next%len(d.cards) == 0 {
		rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next%len(d.cards)]
	d.next++
	return c
}

// mixFixture returns the cached mix for the seed and scale.
func mixFixture(o *options) ([]mixItem, error) {
	items, err := buildMix(o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("serve-mix-seed%d-%dx%d-%d.json", o.seed, o.scale.paperServers, o.scale.paperIntervals, mixItems)
	var cached []mixItem
	if err := jsonFixture(filepath.Join(o.work, "fixtures"), key, items, &cached); err != nil {
		return nil, err
	}
	return cached, nil
}

// expand lists the run requests an item makes the server execute.
func (it mixItem) expand() ([]*serve.RunRequest, error) {
	if it.Kind == "sweep" {
		sw, err := serve.ParseSweepRequest(bytes.NewReader(it.Body), 0)
		if err != nil {
			return nil, err
		}
		return sw.Expand()
	}
	req, err := serve.ParseRunRequest(bytes.NewReader(it.Body), 0)
	if err != nil {
		return nil, err
	}
	return []*serve.RunRequest{req}, nil
}

// referenceKey is the request with its shard count cleared: sharded and
// unsharded execution must return the same result bytes, so both are checked
// against one unsharded library run.
func referenceKey(req *serve.RunRequest) (string, error) {
	r := *req
	r.Shards = 0
	b, err := json.Marshal(&r)
	return string(b), err
}

// references computes the expected result hash of every run the mix can
// make, through core.Engine.RunSource on the request's own configuration.
func references(items []mixItem) (map[string]string, error) {
	refs := make(map[string]string)
	for _, it := range items {
		reqs, err := it.expand()
		if err != nil {
			return nil, err
		}
		for _, req := range reqs {
			key, err := referenceKey(req)
			if err != nil {
				return nil, err
			}
			if _, ok := refs[key]; ok {
				continue
			}
			// Re-parse the cleared request so its validated fields are set.
			r, err := serve.ParseRunRequest(strings.NewReader(key), 0)
			if err != nil {
				return nil, err
			}
			src, err := r.Trace.Open("")
			if err != nil {
				return nil, err
			}
			eng, err := core.NewEngine(r.EngineConfig())
			if err != nil {
				return nil, err
			}
			res, err := eng.RunSource(src, &core.RunOptions{KeepSeries: r.KeepSeries})
			if err != nil {
				return nil, err
			}
			b, err := serve.MarshalResult(res)
			if err != nil {
				return nil, err
			}
			refs[key] = serve.HashBytes(b)
		}
	}
	return refs, nil
}

// server is one spawned h2pserved.
type server struct {
	cmd   *exec.Cmd
	base  string
	ready time.Duration
	log   *readyWriter
}

// readyWriter collects the server's standard error and reports the address
// from its "serving at" line.
type readyWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

func (w *readyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		const marker = "serving at http://"
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexByte(rest, '/'); j >= 0 {
				w.found = true
				w.addr <- rest[:j]
			}
		}
	}
	return len(p), nil
}

func (w *readyWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startServer spawns h2pserved on a loopback port with a journal, two
// executors and quotas loose enough never to throttle the mix, and times it
// from spawn to its listening line.
func startServer(o *options, journal string) (*server, error) {
	w := &readyWriter{addr: make(chan string, 1)}
	cmd := command(filepath.Join(o.bin, "h2pserved"),
		"-addr", "127.0.0.1:0", "-journal", journal,
		"-executors", fmt.Sprint(serveExecutors), "-queue", "100000",
		"-max-queued", "100000", "-submit-burst", "1000000", "-submit-rate", "1000000",
		"-drain-timeout", "60s")
	cmd.Stderr = w
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	select {
	case addr := <-w.addr:
		return &server{cmd: cmd, base: "http://" + addr, ready: time.Since(start), log: w}, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // already failing
		cmd.Wait()         //nolint:errcheck // reaping the killed child
		return nil, fmt.Errorf("h2pserved did not start: %s", w.String())
	}
}

// stop drains the server and returns its peak RSS in MB and the CPU time it
// consumed.
func (s *server) stop() (float64, time.Duration, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return 0, 0, fmt.Errorf("h2pserved: %w: %s", err, s.log.String())
		}
	case <-time.After(90 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // drain hung
		<-done
		return 0, 0, errors.New("h2pserved did not drain")
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, errors.New("h2pserved: no resource usage")
	}
	return float64(ru.Maxrss) / 1024, s.cmd.ProcessState.UserTime() + s.cmd.ProcessState.SystemTime(), nil
}

// completion is a run the event stream reported terminal.
type completion struct {
	id string
	ok bool
	at time.Time
}

// watch streams /runs/events and reports every run's terminal record. It
// returns when the stream ends.
func watch(ctx context.Context, client *http.Client, base string, out chan<- completion, connected chan<- error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/runs/events", nil)
	if err != nil {
		connected <- err
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		connected <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		connected <- fmt.Errorf("event stream: status %d", resp.StatusCode)
		return
	}
	connected <- nil
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || (event != "done" && event != "event") {
			continue
		}
		var rec obs.Record
		if json.Unmarshal([]byte(data), &rec) != nil {
			continue
		}
		c := completion{at: time.Now()}
		c.id, _, _ = strings.Cut(rec.Run, "/")
		switch {
		case event == "done":
			c.ok = true
		case rec.Event != nil && (rec.Event.Kind == obs.EventHalt ||
			(rec.Event.Kind == obs.EventNote && strings.HasPrefix(rec.Event.Detail, "run failed"))):
		default:
			continue
		}
		select {
		case out <- c:
		case <-ctx.Done():
			return
		}
	}
}

// paperRuns is the stage-loop configuration of the mix's paper-scale runs,
// one per class and scheme (sharding does not change a result), for the
// traced run's layer breakdown.
func paperRuns(o *options) ([]stageRun, error) {
	var runs []stageRun
	for _, class := range mixClasses {
		for _, scheme := range mixSchemes {
			b, err := json.Marshal(serve.RunRequest{
				Trace: serve.TraceSpec{Class: class, Servers: o.scale.paperServers,
					Seed: paperTraceSeed, Intervals: o.scale.paperIntervals},
				Scheme: scheme,
			})
			if err != nil {
				return nil, err
			}
			req, err := serve.ParseRunRequest(bytes.NewReader(b), 0)
			if err != nil {
				return nil, err
			}
			runs = append(runs, stageRun{
				name:     "serve-mixed/paper/" + class + "/" + scheme,
				cfg:      req.EngineConfig(),
				open:     func() (trace.Source, error) { return req.Trace.Open("") },
				srcBytes: 8 * int64(o.scale.paperServers) * int64(o.scale.paperIntervals),
			})
		}
	}
	return runs, nil
}

// serveMixed sends the seeded mix to h2pserved: a paced open-loop phase
// timed from each request's due time, then a saturated closed-loop phase for
// capacity. Each phase gets a freshly started server, so the runs one phase
// leaves in the server's memory do not burden the other, and the server's
// CPU time is the phase's own. Every result hash is checked against the
// library reference computed at set-up.
func serveMixed(o *options, t *tally) (values, error) {
	ctx, cancel := context.WithTimeout(context.Background(), serveDeadline)
	defer cancel()
	items, err := mixFixture(o)
	if err != nil {
		return nil, err
	}
	refs, err := references(items)
	if err != nil {
		return nil, err
	}
	v := values{}
	if o.traced {
		runs, err := paperRuns(o)
		if err != nil {
			return nil, err
		}
		if err := tracedLayers(o, t, runs, serveExecutors, make([]*core.Result, len(runs)), v); err != nil {
			return nil, err
		}
	}

	// Set-up is the CPU time of a server that is started, reaches its
	// listening line, and is stopped at once.
	var setups, setupWalls []float64
	for k := 0; k < serveSetups; k++ {
		srv, err := startServer(o, filepath.Join(o.work, "serve-setup.journal"))
		if err != nil {
			return nil, err
		}
		_, cpu, err := srv.stop()
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(cpu))
		setupWalls = append(setupWalls, seconds(srv.ready))
	}
	half := o.seconds.Seconds() / 2
	cursor := 0
	var lat []float64
	var lag float64
	paced, err := onServer(ctx, o, t, "serve-paced.journal", refs, func(c *client) error {
		pacedN := int(o.scale.pacedPerSec * half)
		for attempt := 1; ; attempt++ {
			var err error
			if lat, err = c.paced(ctx, items, &cursor, o.scale.pacedPerSec, pacedN); err != nil {
				return err
			}
			if lag = percentile(c.lagMs, 0.99); lag <= lagBoundMs {
				break
			}
			fmt.Fprintf(o.out, "serve-mixed: paced phase INVALID (attempt %d): generator lag p99 %.3f ms exceeds the %d ms bound\n",
				attempt, lag, lagBoundMs)
			if attempt == pacedAttempts {
				return fmt.Errorf("paced phase invalid: generator lag p99 %.3f ms > %d ms", lag, lagBoundMs)
			}
		}
		if len(lat) == 0 {
			return errors.New("paced phase completed no runs")
		}
		fmt.Fprintf(o.out, "serve-mixed: paced %d requests at %.0f/s, %d latency samples (%d beyond p99), generator lag p99 %.3f ms\n",
			pacedN, o.scale.pacedPerSec, len(lat), len(lat)/100, lag)
		if !o.traced {
			return nil
		}
		if err := c.statusLayers(ctx, v); err != nil {
			return err
		}
		v["serve.submit_ms_p50"] = percentile(c.submitMs, 0.50)
		v["serve.submit_ms_p99"] = percentile(c.submitMs, 0.99)
		v["serve.fetch_ms_p50"] = percentile(c.fetchMs, 0.50)
		v["loadgen.lag_ms_p99"] = lag
		return nil
	})
	if err != nil {
		return nil, err
	}
	var runs int
	var work float64
	var window time.Duration
	sat, err := onServer(ctx, o, t, "serve-saturated.journal", refs, func(c *client) error {
		satN := int(o.scale.saturatedPerSec * half)
		var err error
		if runs, work, window, err = c.saturated(ctx, items, &cursor, satN); err != nil {
			return err
		}
		if runs == 0 {
			return errors.New("saturated phase completed no runs")
		}
		fmt.Fprintf(o.out, "serve-mixed: saturated %d requests, %d runs in %.3f s\n", satN, runs, window.Seconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "serve-mixed: set-up (start, listen, stop) cpu s %.4f, spawn to listening wall s %.4f\n", setups, setupWalls)
	fmt.Fprintf(o.out, "serve-mixed: saturated server used %.3f CPU s for %d runs; %d runs rescued from the event stream\n",
		seconds(sat.cpu), sat.served, paced.rescued+sat.rescued)
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = max(paced.rss, sat.rss)
	v["server_intervals_per_cpu_s"] = sat.work / seconds(sat.cpu)
	v["server_intervals_per_s"] = work / window.Seconds()
	v["capacity_runs_per_s"] = float64(runs) / window.Seconds()
	v["run_latency_p50_ms"] = percentile(lat, 0.50)
	v["run_latency_p99_ms"] = percentile(lat, 0.99)
	v["serve.rejected_429"] = float64(paced.rejected429 + sat.rejected429)
	v["serve.rejected_503"] = float64(paced.rejected503 + sat.rejected503)
	return v, nil
}

// serverUse is what one phase's server did and cost.
type serverUse struct {
	rss                      float64 // peak MB
	cpu                      time.Duration
	served                   int
	work                     float64 // server-intervals served
	rescued                  int
	rejected429, rejected503 int
}

// onServer starts a server journaling to the named file, connects a client
// (event stream plus one request connection), runs phase, and stops both.
func onServer(ctx context.Context, o *options, t *tally, journal string, refs map[string]string, phase func(*client) error) (*serverUse, error) {
	srv, err := startServer(o, filepath.Join(o.work, journal))
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	c := &client{
		http: hc, base: srv.base, refs: refs, t: t,
		// Sized so the event stream never waits on the client: far more
		// terminal records than the loops keep in flight.
		events: make(chan completion, 4096),
		byRun:  make(map[string]*flight),
		early:  make(map[string]completion),
	}
	wctx, stopWatch := context.WithCancel(ctx)
	connected := make(chan error, 1)
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		watch(wctx, hc, srv.base, c.events, connected)
	}()
	err = <-connected
	if err == nil {
		err = phase(c)
	}
	stopWatch()
	<-watched
	hc.CloseIdleConnections()
	rss, cpu, serr := srv.stop()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	return &serverUse{rss: rss, cpu: cpu, served: c.served, work: c.servedWork,
		rescued: c.rescued, rejected429: c.rejected429, rejected503: c.rejected503}, nil
}
