package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadDeterministicProfile is the harness's own acceptance check: a
// spawned server with a fixed submission allowance must accept and reject
// exactly the configured counts for every tenant, with every accepted run
// verified against the local reference — the same invariants make load-check
// asserts at larger scale.
func TestLoadDeterministicProfile(t *testing.T) {
	var out strings.Builder
	code := run([]string{
		"-spawn", "-tenants", "3", "-runs", "7",
		"-servers", "50", "-intervals", "8",
		"-submit-burst", "5", "-expect-accepted", "5", "-expect-rejected", "2",
	}, &out, io.Discard)
	if code != 0 {
		t.Fatalf("load run exit = %d\n%s", code, out.String())
	}
	for _, want := range []string{"accepted  15", "rejected  6 (429)", "zero mismatches, zero drops"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestLoadDetectsViolatedExpectation pins that the harness actually fails
// when its expectations don't hold — a green harness that can't go red
// proves nothing.
func TestLoadDetectsViolatedExpectation(t *testing.T) {
	var out strings.Builder
	code := run([]string{
		"-spawn", "-tenants", "2", "-runs", "4",
		"-servers", "50", "-intervals", "8",
		"-submit-burst", "3", "-expect-accepted", "4", "-expect-rejected", "0",
	}, &out, io.Discard)
	if code == 0 {
		t.Fatalf("violated expectation exited 0\n%s", out.String())
	}
}

func TestLoadBadFlags(t *testing.T) {
	if code := run([]string{"-tenants", "0"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("zero tenants exit = %d, want 2", code)
	}
	if code := run(nil, io.Discard, io.Discard); code != 2 {
		t.Errorf("no server and no -spawn exit = %d, want 2", code)
	}
	if code := run([]string{"-spawn", "-server", "http://x"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("-spawn with -server exit = %d, want 2", code)
	}
}

// TestWaitTerminalFailsOnErrorStatus pins the status poll's error path: a
// reply other than 200 carries no run state, so waitTerminal must fail
// after that one request, naming the status and the server's error text,
// instead of re-polling until its deadline.
func TestWaitTerminalFailsOnErrorStatus(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusServiceUnavailable} {
		var requests atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			io.WriteString(w, `{"error":"no such run"}`)
		}))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		state, err := waitTerminal(ctx, srv.Client(), srv.URL, "r1")
		cancel()
		srv.Close()
		if err == nil {
			t.Fatalf("status %d: waitTerminal returned state %q, want an error", code, state)
		}
		if msg := err.Error(); !strings.Contains(msg, strconv.Itoa(code)) || !strings.Contains(msg, "no such run") {
			t.Errorf("status %d: error %q does not name the status and the server's error", code, msg)
		}
		if n := requests.Load(); n != 1 {
			t.Errorf("status %d: %d requests, want 1", code, n)
		}
	}
}
