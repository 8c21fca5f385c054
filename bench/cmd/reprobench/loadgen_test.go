package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsIdenticalForASeed(t *testing.T) {
	benches := []string{"gzip", "mcf"}
	draw := func(seed uint64) []call {
		return newMixer(seed, benches).phase(seed, "mid", 350, time.Second, 2*time.Second)
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules drawn from seed 7 differ")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
	// 350 rps over 3 s: about 1,050 arrivals, the first second unbilled.
	if n := len(a); n < 900 || n > 1200 {
		t.Fatalf("%d arrivals at 350 rps over 3 s", n)
	}
	routes := map[string]int{}
	for i, c := range a {
		if i > 0 && c.Due < a[i-1].Due {
			t.Fatalf("call %d due at %v before call %d at %v", i, c.Due, i-1, a[i-1].Due)
		}
		if c.Billed != (c.Due >= time.Second) {
			t.Fatalf("call due at %v has billed = %v", c.Due, c.Billed)
		}
		if c.Route == "predict64" && len(c.Indices) != 64 {
			t.Fatalf("predict64 call with %d designs", len(c.Indices))
		}
		routes[c.Route]++
	}
	if share := float64(routes["predict1"]) / float64(len(a)); share < 0.5 || share > 0.7 {
		t.Fatalf("predict1 share %.2f, want about 0.6 (routes %v)", share, routes)
	}
}

// A server that stalls once must charge the stall to the requests due
// behind it: their latency runs from their due time, not from when a
// connection freed up to send them.
func TestOpenLoopChargesStallToRequestsBehindIt(t *testing.T) {
	const stall = 100 * time.Millisecond
	var n, inflight, maxInflight atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			m := maxInflight.Load()
			if cur <= m || maxInflight.CompareAndSwap(m, cur) {
				break
			}
		}
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	calls := make([]call, 30)
	for i := range calls {
		calls[i] = call{Due: time.Duration(i) * 5 * time.Millisecond, Route: "predict1", Method: http.MethodGet, Path: "/", Billed: true}
	}
	const conns = 1
	client := newClient(conns)
	defer client.CloseIdleConnections()
	outs := openLoop(context.Background(), client, srv.URL, calls, conns)

	if got := maxInflight.Load(); got > conns {
		t.Fatalf("server saw %d requests at once through a %d-connection cap", got, conns)
	}
	for i, c := range calls {
		o := outs[i]
		if !o.ok() {
			t.Fatalf("call %d: status %d, err %v", i, o.Status, o.Err)
		}
		if c.Due >= stall {
			continue
		}
		// Every call due during the stall waits for it to end.
		if want := stall - c.Due; o.latency(c) < want {
			t.Errorf("call %d due at %v: latency %v, want at least %v", i, c.Due, o.latency(c), want)
		}
		if i > 0 && o.lag(c) < stall-c.Due-5*time.Millisecond {
			t.Errorf("call %d due at %v: lag %v, want about %v", i, c.Due, o.lag(c), stall-c.Due)
		}
	}
}
