package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/h2p-sim/h2p/internal/core"
	"github.com/h2p-sim/h2p/internal/fault"
	"github.com/h2p-sim/h2p/internal/obs"
	"github.com/h2p-sim/h2p/internal/sched"
	"github.com/h2p-sim/h2p/internal/trace"
)

// TestServeEquivalentToCLIPath is the API's bit-identity pin: a run submitted
// over HTTP must produce the same canonical result JSON — every float bit —
// and the same journal done record as the library path the h2psim CLI
// drives, constructed here independently of the serve package's own request
// translation. Covers both schemes, unsharded and sharded execution, and a
// fault plan.
func TestServeEquivalentToCLIPath(t *testing.T) {
	const (
		servers   = 75
		intervals = 10
		seed      = int64(7)
	)
	type combo struct {
		scheme string
		shards int
		plan   string
	}
	var combos []combo
	for _, scheme := range []string{"original", "loadbalance"} {
		for _, shards := range []int{0, 3} {
			for _, plan := range []string{"", "teg-degrade:0.2:0.5"} {
				combos = append(combos, combo{scheme, shards, plan})
			}
		}
	}

	s, ts, journal := testServer(t, nil)
	for _, c := range combos {
		name := fmt.Sprintf("%s/shards=%d/faults=%q", c.scheme, c.shards, c.plan)
		t.Run(name, func(t *testing.T) {
			// API side: submit, wait, fetch the canonical result document.
			body, err := json.Marshal(&RunRequest{
				Trace:     TraceSpec{Class: "drastic", Servers: servers, Seed: seed, Intervals: intervals},
				Scheme:    c.scheme,
				Shards:    c.shards,
				FaultPlan: c.plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := decodeStatus(t, submit(t, ts, "equiv", string(body)))
			final := waitState(t, ts, st.ID)
			if final.State != StateDone {
				t.Fatalf("run ended %s (%s)", final.State, final.Error)
			}
			resp := mustGet(t, ts.URL+"/api/v1/runs/"+st.ID+"/result")
			apiJSON := new(bytes.Buffer)
			if _, err := apiJSON.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			// Reference side: the CLI's library path, assembled from the
			// primitive pieces exactly as cmd/h2psim does — default config
			// for the scheme, generator preset with a trimmed horizon,
			// -shards setting the engine's shard count.
			scheme := sched.Original
			if c.scheme == "loadbalance" {
				scheme = sched.LoadBalance
			}
			cfg := core.DefaultConfig(scheme)
			plan, err := fault.ParsePlan(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
			cfg.FaultSeed = 1 // the CLI's -fault-seed default
			gen := trace.DrasticConfig(servers)
			gen.Horizon = time.Duration(intervals) * gen.Interval
			src, err := trace.NewGeneratorSource(gen, seed)
			if err != nil {
				t.Fatal(err)
			}
			if c.shards > 0 {
				cfg.Workers = c.shards
			}
			eng, err := core.NewFleet().Engine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunSourceContext(context.Background(), src, nil)
			if err != nil {
				t.Fatal(err)
			}
			refJSON, err := MarshalResult(res)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(apiJSON.Bytes(), refJSON) {
				t.Errorf("API result JSON differs from CLI library path\napi:  %s\nref:  %s",
					firstDiffLine(apiJSON.Bytes(), refJSON), "(see above)")
			}
			if got, want := HashBytes(apiJSON.Bytes()), HashBytes(refJSON); got != want {
				t.Errorf("result hash: api %s, reference %s", got, want)
			}

			// Journal side: the server's done record for this run must carry
			// the same headline numbers (everything except wall time, which
			// is the one legitimately nondeterministic field).
			apiDone := doneFor(t, s, journal, st.ID)
			refDone := referenceDone(res, intervals)
			apiDone.WallMS, refDone.WallMS = 0, 0
			if *apiDone != *refDone {
				if apiDone.Faults != nil && refDone.Faults != nil && *apiDone.Faults == *refDone.Faults {
					af, rf := apiDone.Faults, refDone.Faults
					apiDone.Faults, refDone.Faults = nil, nil
					defer func() { apiDone.Faults, refDone.Faults = af, rf }()
				}
				if *apiDone != *refDone {
					t.Errorf("journal done record differs\napi: %+v\nref: %+v", apiDone, refDone)
				}
			}
		})
	}
}

// doneFor digs the run's done record out of the server journal.
func doneFor(t *testing.T, s *Server, journal, runID string) *obs.Done {
	t.Helper()
	for _, r := range readJournal(t, s, journal) {
		if r.Type == "done" && strings.HasPrefix(r.Run, runID+"/") {
			return r.Done
		}
	}
	t.Fatalf("no done record for run %s", runID)
	return nil
}

// referenceDone builds the done record the obs recorder would write for res.
func referenceDone(res *core.Result, intervals int) *obs.Done {
	d := &obs.Done{
		Intervals:             intervals,
		AvgTEGWattsPerServer:  float64(res.AvgTEGPowerPerServer),
		PeakTEGWattsPerServer: float64(res.PeakTEGPowerPerServer),
		PRE:                   res.PRE,
		TEGEnergyKWh:          float64(res.TEGEnergy),
	}
	if res.Faults.Any() {
		f := res.Faults
		d.Faults = &f
	}
	return d
}

// firstDiffLine localizes the first differing line of two JSON documents.
func firstDiffLine(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: api=%q ref=%q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length: api %d lines, ref %d lines", len(al), len(bl))
}

// TestServeEquivalenceAcrossShardCounts pins that the server's sharded and
// unsharded executions of the same request agree with each other — the
// server-side restatement of the shard layer's bit-identity guarantee.
func TestServeEquivalenceAcrossShardCounts(t *testing.T) {
	_, ts, _ := testServer(t, nil)
	hashes := make(map[int]string)
	for _, shards := range []int{0, 2, 5} {
		body := fmt.Sprintf(`{"trace":{"class":"irregular","servers":60,"seed":3,"intervals":8},"scheme":"loadbalance","shards":%d}`, shards)
		st := decodeStatus(t, submit(t, ts, "equiv", body))
		final := waitState(t, ts, st.ID)
		if final.State != StateDone {
			t.Fatalf("shards=%d run ended %s (%s)", shards, final.State, final.Error)
		}
		hashes[shards] = final.ResultHash
	}
	if hashes[0] != hashes[2] || hashes[0] != hashes[5] {
		t.Fatalf("shard counts disagree: %v", hashes)
	}
}
