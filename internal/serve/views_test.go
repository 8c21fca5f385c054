package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// sweepBody is the canonical request body the view tests replay; Top is
// explicit so the tests control the view key.
func sweepBody(top int) SweepRequest { return SweepRequest{Bench: "gzip", Top: top} }

// doSweep posts one sweep request with optional extra headers and
// returns the raw response (body fully read and closed).
func doSweep(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestViewSingleflightUnderConcurrency fires many concurrent cold
// requests at one sweep view: the build must run exactly once, every
// request must get the identical bytes, and hits+misses must account for
// every request.
func TestViewSingleflightUnderConcurrency(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const clients = 16
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(sweepBody(5))
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes than client 0", i)
		}
	}
	st := s.Stats()
	if st.ViewBuilds != 1 {
		t.Fatalf("view builds = %d, want exactly 1 for %d concurrent identical requests", st.ViewBuilds, clients)
	}
	if st.ViewHits+st.ViewMisses != clients {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d", st.ViewHits, st.ViewMisses, st.ViewHits+st.ViewMisses, clients)
	}
	if st.ViewMisses < 1 {
		t.Fatalf("misses = %d, want >= 1 (somebody built the view)", st.ViewMisses)
	}
}

// TestViewHitServesIdenticalBytes compares the miss (build) response
// with subsequent hit responses byte for byte, for both cached
// endpoints: caching must be invisible in the payload.
func TestViewHitServesIdenticalBytes(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for _, c := range []struct {
		name string
		path string
		body any
	}{
		{"sweep", "/v1/sweep", sweepBody(7)},
		{"pareto", "/v1/pareto", ParetoRequest{Bench: "gzip", Targets: 25}},
	} {
		_, first := doSweep(t, ts.URL+c.path, c.body, nil)
		_, second := doSweep(t, ts.URL+c.path, c.body, nil)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: hit bytes differ from miss bytes", c.name)
		}
		if len(first) == 0 || first[len(first)-1] != '\n' {
			t.Fatalf("%s: cached body must keep the writeJSON trailing newline", c.name)
		}
	}
	st := s.Stats()
	if st.ViewHits < 2 {
		t.Fatalf("view hits = %d, want >= 2", st.ViewHits)
	}
}

// TestETagConditionalRequests walks the conditional-request protocol:
// a 200 carrying a strong ETag, a 304 (no body) when revalidating with
// that tag, W/-prefixed and list forms, the "*" wildcard, and a full 200
// again for a stale tag.
func TestETagConditionalRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	url := ts.URL + "/v1/sweep"
	resp, body := doSweep(t, url, sweepBody(5), nil)
	etag := resp.Header.Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("ETag = %q, want a quoted strong validator", etag)
	}
	if len(body) == 0 {
		t.Fatal("empty 200 body")
	}

	for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		resp, body := doSweep(t, url, sweepBody(5), map[string]string{"If-None-Match": inm})
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("If-None-Match %q: 304 carried %d body bytes", inm, len(body))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("304 ETag = %q, want %q", got, etag)
		}
	}

	resp, body = doSweep(t, url, sweepBody(5), map[string]string{"If-None-Match": `"g0-stale"`})
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("stale tag: status %d body %d bytes, want a full 200", resp.StatusCode, len(body))
	}

	// A different view parameter is a different representation with its
	// own tag: the old tag must not 304 it.
	resp, _ = doSweep(t, url, sweepBody(6), map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("different top with old tag: status %d, want 200", resp.StatusCode)
	}
	if other := resp.Header.Get("ETag"); other == etag {
		t.Fatalf("top=5 and top=6 share ETag %q", etag)
	}
}

// TestReloadInvalidatesViews reloads between requests: the new
// generation must rebuild its views (never serving the old generation's
// bytes) and old ETags must stop matching, so pollers re-download.
func TestReloadInvalidatesViews(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	url := ts.URL + "/v1/sweep"
	resp1, body1 := doSweep(t, url, sweepBody(5), nil)
	etag1 := resp1.Header.Get("ETag")
	var sr1 SweepResponse
	decodeInto(t, body1, &sr1)
	if sr1.Generation != 1 {
		t.Fatalf("generation = %d, want 1", sr1.Generation)
	}
	buildsBefore := s.Stats().ViewBuilds

	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}

	// Revalidating with the old generation's tag must yield a full 200
	// from the new generation, never a false 304.
	resp2, body2 := doSweep(t, url, sweepBody(5), map[string]string{"If-None-Match": etag1})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-reload conditional request: status %d, want 200", resp2.StatusCode)
	}
	var sr2 SweepResponse
	decodeInto(t, body2, &sr2)
	if sr2.Generation != 2 {
		t.Fatalf("post-reload generation = %d, want 2", sr2.Generation)
	}
	if etag2 := resp2.Header.Get("ETag"); etag2 == etag1 {
		t.Fatalf("ETag %q survived the reload", etag1)
	}
	if builds := s.Stats().ViewBuilds; builds != buildsBefore+1 {
		t.Fatalf("view builds across reload = %d, want %d (new generation rebuilds)", builds, buildsBefore+1)
	}
	// Same models, fresh build: everything except the generation stamp
	// must come out identical — the rebuild is deterministic.
	sr1.Generation = sr2.Generation
	a, _ := json.Marshal(sr1)
	b, _ := json.Marshal(sr2)
	if !bytes.Equal(a, b) {
		t.Fatal("reloaded generation's sweep content differs from the original's")
	}
}

// TestReloadMidViewTraffic hammers the cached endpoints while reloading
// repeatedly: every response must be internally consistent (generation
// in body only ever current-or-recent, never a mix) and error-free.
func TestReloadMidViewTraffic(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, body := doSweep(t, ts.URL+"/v1/sweep", sweepBody(3), nil)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("sweep during reload: status %d", resp.StatusCode)
					return
				}
				var sr SweepResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					t.Errorf("sweep during reload: %v", err)
					return
				}
				if sr.Generation < 1 {
					t.Errorf("impossible generation %d", sr.Generation)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Reload(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if gen := s.Stats().Generation; gen != 4 {
		t.Fatalf("final generation = %d, want 4", gen)
	}
}

// TestGzipVariant requests the cached view with Accept-Encoding: gzip
// and cross-checks the compressed bytes decode to exactly the identity
// body.
func TestGzipVariant(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	url := ts.URL + "/v1/sweep"
	_, identity := doSweep(t, url, sweepBody(10), nil)
	if len(identity) < gzipMinBytes {
		t.Fatalf("identity body only %d bytes; fixture too small to exercise gzip", len(identity))
	}
	resp, raw := doSweep(t, url, sweepBody(10), map[string]string{"Accept-Encoding": "gzip"})
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	if resp.Header.Get("Vary") != "Accept-Encoding" {
		t.Fatalf("Vary = %q, want Accept-Encoding", resp.Header.Get("Vary"))
	}
	if len(raw) >= len(identity) {
		t.Fatalf("gzip variant (%d bytes) not smaller than identity (%d)", len(raw), len(identity))
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, identity) {
		t.Fatal("gzip variant decodes to different bytes than the identity response")
	}
}

// parkSignal is a context that reports the first time a caller asks for
// its Done channel: a view request asks only once it has found an
// in-flight build and is about to wait on it.
type parkSignal struct {
	context.Context
	once   sync.Once
	parked *sync.WaitGroup
}

func (c *parkSignal) Done() <-chan struct{} {
	c.once.Do(c.parked.Done)
	return c.Context.Done()
}

// TestViewWaitersCountAsMisses holds a cold view build open while
// several requests for the same key wait on it: the key must build
// once, and the builder and every waiter count as misses, none as a
// hit.
func TestViewWaitersCountAsMisses(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	g := s.generation()
	key := viewKey{kind: "sweep", bench: "gzip", param: 3}
	started, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int64
	build := func(context.Context) (any, error) {
		if builds.Add(1) == 1 {
			close(started)
			<-release
		}
		return SweepResponse{Bench: "gzip"}, nil
	}
	serveOne := func(ctx context.Context) error {
		r := httptest.NewRequest(http.MethodPost, "/v1/sweep", nil)
		return s.serveMaterialized(ctx, httptest.NewRecorder(), r, g, key, build)
	}

	const waiters = 8
	errs := make(chan error, waiters+1)
	go func() { errs <- serveOne(context.Background()) }()
	<-started
	var parked sync.WaitGroup
	parked.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() { errs <- serveOne(&parkSignal{Context: context.Background(), parked: &parked}) }()
	}
	parked.Wait()
	close(release)
	for i := 0; i < waiters+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if builds.Load() != 1 || st.ViewBuilds != 1 || st.ViewMisses != waiters+1 || st.ViewHits != 0 {
		t.Fatalf("builds = %d (stats %d), misses = %d, hits = %d; want 1 build, %d misses, 0 hits",
			builds.Load(), st.ViewBuilds, st.ViewMisses, st.ViewHits, waiters+1)
	}
}

// TestSweepTopClamp asks for more designs than the materialized ranking
// depth: the request must succeed with the ranking capped at
// MaxSweepTop, keeping the view-key space bounded.
func TestSweepTopClamp(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := doSweep(t, ts.URL+"/v1/sweep", sweepBody(MaxSweepTop+500), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr SweepResponse
	decodeInto(t, body, &sr)
	if len(sr.Best) > MaxSweepTop {
		t.Fatalf("got %d ranked designs, cap is %d", len(sr.Best), MaxSweepTop)
	}
	if len(sr.Best) == 0 {
		t.Fatal("empty ranking")
	}
}

// TestTopKByEfficiencyMatchesSort cross-checks the heap-based bounded
// selection against a full stable sort on synthetic predictions with
// ties and non-physical entries.
func TestTopKByEfficiencyMatchesSort(t *testing.T) {
	preds := []core.Prediction{
		{Index: 0, BIPS: 2, Watts: 4},
		{Index: 1, BIPS: 0, Watts: 10},  // non-physical: bips <= 0
		{Index: 2, BIPS: 3, Watts: 27},  // eff 1.0
		{Index: 3, BIPS: 1, Watts: 1},   // eff 1.0 tie with 2
		{Index: 4, BIPS: 4, Watts: 2},   // eff 32
		{Index: 5, BIPS: 2, Watts: -1},  // non-physical: watts <= 0
		{Index: 6, BIPS: 2, Watts: 4},   // eff 2.0, tie with 0
		{Index: 7, BIPS: 5, Watts: 125}, // eff 1.0 tie with 2, 3
		{Index: 8, BIPS: 10, Watts: 1},  // eff 1000
	}
	eff := func(p core.Prediction) float64 { return p.BIPS * p.BIPS * p.BIPS / p.Watts }
	var want []core.Prediction
	for _, p := range preds {
		if p.BIPS > 0 && p.Watts > 0 {
			want = append(want, p)
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		if eff(want[i]) != eff(want[j]) {
			return eff(want[i]) > eff(want[j])
		}
		return want[i].Index < want[j].Index
	})
	for _, k := range []int{0, 1, 2, 3, len(want), len(want) + 5} {
		got := topKByEfficiency(preds, k)
		wantK := want
		if k < len(wantK) {
			wantK = wantK[:k]
		}
		if k <= 0 {
			wantK = nil
		}
		if len(got) != len(wantK) {
			t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(wantK))
		}
		for i := range got {
			if got[i] != wantK[i] {
				t.Fatalf("k=%d: rank %d = %+v, want %+v", k, i, got[i], wantK[i])
			}
		}
	}
}

// TestInmMatches pins the If-None-Match matcher's corner cases.
func TestInmMatches(t *testing.T) {
	const tag = `"g1-sweep-gzip-5"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"*", true},
		{tag, true},
		{"W/" + tag, true},
		{`"other"`, false},
		{`"other", ` + tag, true},
		{` "a" , "b" `, false},
	}
	for _, c := range cases {
		if got := inmMatches(c.header, tag); got != c.want {
			t.Errorf("inmMatches(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}
