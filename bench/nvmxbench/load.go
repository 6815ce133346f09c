package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// service is one running study service: its store, the server, a loopback
// HTTP front end, and, for fabric workloads, two in-process workers.
type service struct {
	st      *store.Store
	srv     *server.Server
	front   *httptest.Server
	workers []*worker
	client  *http.Client
	// setup is the time from opening the store to the first healthy
	// /v1/healthz answer.
	setup time.Duration
}

// worker is one in-process fabric worker: a storeless server over loopback.
type worker struct {
	srv   *server.Server
	front *httptest.Server
}

// startWorkers starts n fabric workers and returns them with their URLs.
func startWorkers(n int) ([]*worker, []string) {
	var ws []*worker
	var urls []string
	for i := 0; i < n; i++ {
		srv := server.New(server.Options{})
		w := &worker{srv: srv, front: httptest.NewServer(srv.Handler())}
		ws = append(ws, w)
		urls = append(urls, w.front.URL)
	}
	return ws, urls
}

func stopWorkers(ws []*worker) {
	for _, w := range ws {
		w.front.Close()
		w.srv.Close()
	}
}

// maxConns is the load generator's connection budget: one closed-loop client
// and, on query-mix, one open-loop writer.
const maxConns = 2

// startService opens the store at dir (restoring its memo snapshot), starts
// the fabric workers when asked, builds the server (which loads the query
// index), and waits for /v1/healthz, timing all of it as set-up.
func startService(dir string, fabric bool) (*service, error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	s := &service{st: st}
	var urls []string
	if fabric {
		s.workers, urls = startWorkers(2)
	}
	s.srv = server.New(server.Options{Store: st, Workers: urls})
	s.front = httptest.NewServer(s.srv.Handler())
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	for try := 0; ; try++ {
		resp, err := s.client.Get(s.front.URL + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if try == 100 {
			s.close()
			return nil, fmt.Errorf("service never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.setup = time.Since(t0)
	return s, nil
}

// close stops the front end (waiting for in-flight requests), the server's
// job workers and the fabric workers.
func (s *service) close() {
	s.front.Close()
	s.srv.Close()
	stopWorkers(s.workers)
	s.client.CloseIdleConnections()
}

// sample is one completed request.
type sample struct {
	i int
	// ms runs from when the request was due to its last body byte; lagMS is
	// how late it was sent. Closed-loop requests are due when sent.
	ms, lagMS float64
	sum       [32]byte
	err       error
}

// send issues r, due at due, reads the whole body into buf, and times it.
// The body is hashed after the clock stops.
func (s *service) send(r request, i int, due time.Time, buf *bytes.Buffer) sample {
	sm := sample{i: i}
	var req *http.Request
	var err error
	if r.kind == "study" {
		req, err = http.NewRequest(http.MethodPost, s.front.URL+r.path, bytes.NewReader(r.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, s.front.URL+r.path, nil)
	}
	if err != nil {
		sm.err = err
		return sm
	}
	buf.Reset()
	start := time.Now()
	resp, err := s.client.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	sm.ms = float64(end.Sub(due)) / 1e6
	sm.lagMS = float64(start.Sub(due)) / 1e6
	switch {
	case err != nil:
		sm.err = err
	case resp.StatusCode/100 != 2:
		sm.err = fmt.Errorf("%s %s: status %d: %.200s", req.Method, r.path, resp.StatusCode, buf.Bytes())
	default:
		sm.sum = sha256.Sum256(buf.Bytes())
		if r.golden != "" && !goldenMatch(r.golden, sm.sum) {
			sm.err = fmt.Errorf("%s: body differs from the golden %s", r.path, r.golden)
		}
	}
	return sm
}

// closedLoop sends next's requests back to back from one client, starting
// at request first, until the deadline or, when limit > 0, until limit
// requests have been sent.
func (s *service) closedLoop(next func(i int) request, first int, deadline time.Time, limit int) []sample {
	var out []sample
	var buf bytes.Buffer
	for i := first; (limit == 0 || len(out) < limit) && time.Now().Before(deadline); i++ {
		r := next(i)
		out = append(out, s.send(r, i, time.Now(), &buf))
	}
	return out
}

// openLoop sends write's k-th request when it is due, writePeriod apart from
// start, until the deadline. A request that cannot be sent on time because
// the previous one is still running goes late, and its latency counts from
// when it was due.
func (s *service) openLoop(write func(k int) request, start, deadline time.Time) []sample {
	var out []sample
	var buf bytes.Buffer
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * writePeriod)
		if !due.Before(deadline) {
			return out
		}
		r := write(k)
		time.Sleep(time.Until(due))
		out = append(out, s.send(r, k, due, &buf))
	}
}
