package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/rats"
)

// serveClients is the closed loop's client count: one per core of the
// 2-core machine the benchmark was sized on, each holding one keep-alive
// connection.
const serveClients = 2

// server is an in-process ratsd — serve.NewServer with the zero
// ServerConfig, as the ratsd binary runs by default — behind a loopback
// listener, plus the benchmark's HTTP clients.
type server struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	clients []*http.Client
	done    chan error // what Serve returned
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &server{
		srv:  serve.NewServer(serve.ServerConfig{}),
		url:  "http://" + ln.Addr().String() + "/v1/schedule",
		done: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	for c := 0; c < serveClients; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	return s, nil
}

// close shuts the listener, answers whatever is in flight, drains the
// batcher and waits for the serving goroutine to return.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Drain()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// envelope is a ratsd response: the result document and the service's
// per-request record.
type envelope struct {
	Result json.RawMessage      `json:"result"`
	Serve  serve.RequestMetrics `json:"serve"`
	Error  string               `json:"error"`
}

// post sends one request body on client c and decodes the envelope.
func (s *server) post(c int, body []byte) (envelope, time.Duration, error) {
	var env envelope
	t0 := time.Now()
	resp, err := s.clients[c].Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return env, time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return env, lat, err
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return env, lat, fmt.Errorf("decoding response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return env, lat, fmt.Errorf("status %d: %s", resp.StatusCode, env.Error)
	}
	return env, lat, nil
}

// served is one answered serve-small request, as the traced run sees it.
type served struct {
	lat time.Duration
	ok  bool
	env serve.RequestMetrics
}

// serveLoop runs the closed loop of serveClients clients for dur. Each
// client posts bodies drawn uniformly (seeded per client) from the pool.
// An answer counts as OK only if it is a 200 whose result decodes with
// rats.DecodeResult, passes the schedule checks and is byte-equal to the
// library's wire document for the same body. With record set, every
// answer's service record is kept for the traced run.
func serveLoop(s *server, w *workload, ans []answer, dur time.Duration, seed int64, record bool) (loopResult, [][]served, float64) {
	rngs := make([]*rand.Rand, serveClients)
	chks := make([]checker, serveClients)
	seen := make([][]bool, serveClients)
	recs := make([][]served, serveClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*serveClients + int64(c)))
		seen[c] = make([]bool, len(w.jobs))
	}
	res := closedLoop(serveClients, dur, func(c int) (int, time.Duration, bool) {
		j := w.jobs[rngs[c].Intn(len(w.jobs))]
		seen[c][j.id] = true
		env, lat, err := s.post(c, j.body)
		if err == nil {
			err = verifyServed(&chks[c], j, ans[j.id], env.Result)
		}
		if record {
			recs[c] = append(recs[c], served{lat: lat, ok: err == nil, env: env.Serve})
		}
		return j.id, lat, err == nil
	})
	distinct := 0
	for id := range w.jobs {
		for c := range seen {
			if seen[c][id] {
				distinct++
				break
			}
		}
	}
	dup := 0.0
	if res.attempted > 0 {
		dup = 1 - float64(distinct)/float64(res.attempted)
	}
	return res, recs, dup
}

func verifyServed(chk *checker, j *job, a answer, result json.RawMessage) error {
	wr, err := rats.DecodeResult(result)
	if err != nil {
		return err
	}
	if err := chk.check(j.g, j.cfg.cluster.Procs(), wr.Makespan, wr.Placements); err != nil {
		return err
	}
	if !a.ok || !bytes.Equal(result, a.wire) {
		return fmt.Errorf("%s: served result differs from the library's wire document", j.dag.Name)
	}
	return nil
}
