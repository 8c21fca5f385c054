package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/rng"
)

// call is one scheduled HTTP request of an open-loop phase.
type call struct {
	// Due is when the request is to be sent, relative to phase start.
	Due time.Duration
	// Route names the request kind for per-route accounting
	// (predict1, predict64, simulate, sweep, pareto, reload).
	Route  string
	Method string
	Path   string
	Body   []byte
	// Bench and Indices describe a predict or simulate request so its
	// answer can be re-checked in process.
	Bench   string
	Indices []int
	// Billed is false for warmup requests: sent, checked, not measured.
	Billed bool
}

// outcome is what happened to one call.
type outcome struct {
	// Sent and Done are offsets from phase start. Latency is Done-Due,
	// so time a request spent queued behind a stall counts against it.
	Sent, Done time.Duration
	Status     int
	Err        error
	Body       []byte
}

// latency runs from the request's due time to its answer.
func (o outcome) latency(c call) time.Duration { return o.Done - c.Due }

// lag is how late the request left the generator: dispatch oversleep
// plus the wait for a free connection.
func (o outcome) lag(c call) time.Duration { return o.Sent - c.Due }

// ok reports a 2xx answer with no transport error.
func (o outcome) ok() bool { return o.Err == nil && o.Status >= 200 && o.Status < 300 }

// poissonDues returns the send offsets of an open-loop Poisson arrival
// process at rate requests per second over [0, span), drawn from r.
func poissonDues(r *rng.Source, rate float64, span time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += r.Exponential(1 / rate)
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return dues
		}
		dues = append(dues, d)
	}
}

// newClient returns an HTTP client that holds at most conns keep-alive
// connections to the daemon. Compression is off so responses are read
// as the daemon encodes them.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// openLoop sends every call at its due time, whatever the state of
// earlier calls, through conns workers that each hold one connection.
// A call whose worker is busy waits in the generator's queue, and that
// wait counts in its latency and lag. It returns one outcome per call,
// in schedule order, after every call has answered or failed.
func openLoop(ctx context.Context, client *http.Client, baseURL string, calls []call, conns int) []outcome {
	out := make([]outcome, len(calls))
	// Sized to the number of sends: the dispatcher never blocks, so a
	// backlog shows up as lag instead of as a late schedule.
	queue := make(chan int, len(calls))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i] = send(ctx, client, baseURL, calls[i], start)
			}
		}()
	}
	for i, c := range calls {
		if wait := c.Due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

func send(ctx context.Context, client *http.Client, baseURL string, c call, start time.Time) outcome {
	var o outcome
	o.Sent = time.Since(start)
	req, err := http.NewRequestWithContext(ctx, c.Method, baseURL+c.Path, bytes.NewReader(c.Body))
	if err != nil {
		o.Err, o.Done = err, time.Since(start)
		return o
	}
	if c.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		o.Err, o.Done = err, time.Since(start)
		return o
	}
	o.Body, o.Err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Status = resp.StatusCode
	o.Done = time.Since(start)
	return o
}
