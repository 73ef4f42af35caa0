package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/svc"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
)

// fleetWorkers is the size of the in-process worker fleet; each worker
// runs its shards on one simulation thread (the config's workers: 1), so
// the fleet uses at most two.
const fleetWorkers = 2

// workerPoll caps the wait between a worker's lease polls, so an idle
// worker picks up a new shard within a few milliseconds.
const workerPoll = 5 * time.Millisecond

// statusPoll is the interval at which a campaign's state is polled for
// completion.
const statusPoll = 2 * time.Millisecond

// fleet is an in-process campaign service on a loopback listener with
// its worker fleet: the /v1 path exactly as a remote client sees it.
type fleet struct {
	dir    string
	svc    *svc.Service
	srv    *http.Server
	url    string
	client *client.Client

	cancel  context.CancelFunc
	wg      sync.WaitGroup
	mu      sync.Mutex
	workErr []error
}

// startFleet brings up the service under dir and its workers, and
// returns once every worker has polled for a lease. rt, when non-nil,
// carries every HTTP request of the client and the workers.
func startFleet(dir string, rt http.RoundTripper) (*fleet, error) {
	logs, err := core.NewLogsRepo(filepath.Join(dir, "logs"))
	if err != nil {
		return nil, err
	}
	spool, err := svc.OpenSpool(filepath.Join(dir, "spool"))
	if err != nil {
		return nil, err
	}
	index, err := fault.NewResultIndex(filepath.Join(dir, "index"))
	if err != nil {
		return nil, err
	}
	s, err := svc.New(svc.Options{Logs: logs, Spool: spool, Index: index, Resolve: cli.Resolve})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	f := &fleet{dir: dir, svc: s, srv: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String()}
	go f.srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on stop
	hc := func() *http.Client {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		var r http.RoundTripper = tr
		if rt != nil {
			r = rt
		}
		return &http.Client{Timeout: 60 * time.Second, Transport: r}
	}
	f.client = client.New(f.url, client.WithHTTPClient(hc()))
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < fleetWorkers; i++ {
		opt := dist.WorkerOptions{
			ID: fmt.Sprintf("w%d", i+1), Resolve: cli.Resolve, Poll: workerPoll,
			Client: client.New(f.url, client.WithHTTPClient(hc())),
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := dist.RunWorker(ctx, f.url, opt); err != nil && !errors.Is(err, context.Canceled) {
				f.mu.Lock()
				f.workErr = append(f.workErr, fmt.Errorf("worker %s: %w", opt.ID, err))
				f.mu.Unlock()
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(s.Fleet()) < fleetWorkers {
		if time.Now().After(deadline) {
			return nil, errors.Join(fmt.Errorf("fleet: %d of %d workers polled within 30s", len(s.Fleet()), fleetWorkers), f.stop())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return f, nil
}

// stop cancels the workers, waits for them, and shuts the service down.
// It returns the errors the workers ended with, if any.
func (f *fleet) stop() error {
	f.cancel()
	f.wg.Wait()
	f.srv.Close()
	f.svc.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(f.workErr...)
}

// submit runs one campaign over /v1: submit, poll its state until it is
// terminal, and fetch its results. It returns the final status, the
// results and the wall time from submit until the results were read.
func (f *fleet) submit(ctx context.Context, req api.SubmitRequest) (api.CampaignStatus, api.ResultsResponse, time.Duration, error) {
	start := time.Now()
	st, err := f.client.Submit(ctx, req)
	if err != nil {
		return st, api.ResultsResponse{}, 0, fmt.Errorf("submit: %w", err)
	}
	id := st.ID
	for !api.TerminalState(st.State) {
		time.Sleep(statusPoll)
		if st, err = f.client.Get(ctx, id); err != nil {
			return st, api.ResultsResponse{}, 0, fmt.Errorf("status of %s: %w", id, err)
		}
	}
	if st.State != api.StateDone {
		return st, api.ResultsResponse{}, 0, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res, err := f.client.Results(ctx, st.ID)
	if err != nil {
		return st, res, 0, fmt.Errorf("results of %s: %w", st.ID, err)
	}
	return st, res, time.Since(start), nil
}

// logsDir is where the service stored the merged logs of campaign id.
func (f *fleet) logsDir(id string) string { return filepath.Join(f.dir, "logs", id) }

// exchange is one HTTP round trip seen by the timing transport.
type exchange struct {
	path       string
	start, end time.Time
	status     int // 0: transport error
	worker     string
	shard      int    // lease replies with a shard, and completions
	leaseState string // lease replies: shard, wait, done, failed
}

// timingTransport records every round trip of the service's client and
// workers: endpoint, start, end, status, and for the worker protocol the
// worker, shard and lease outcome read from the bodies.
type timingTransport struct {
	base http.RoundTripper

	mu  sync.Mutex
	log []exchange
}

func newTimingTransport() *timingTransport {
	return &timingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := exchange{path: req.URL.Path, shard: -1}
	if req.Body != nil && (ex.path == "/v1/lease" || ex.path == "/v1/complete") {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		var in struct {
			WorkerID string `json:"worker_id"`
			ShardID  *int   `json:"shard_id"`
		}
		if json.Unmarshal(body, &in) == nil {
			ex.worker = in.WorkerID
			if in.ShardID != nil {
				ex.shard = *in.ShardID
			}
		}
	}
	ex.start = time.Now()
	resp, err := t.base.RoundTrip(req)
	if err == nil && ex.path == "/v1/lease" && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var out api.LeaseResponse
		if json.Unmarshal(body, &out) == nil {
			ex.leaseState = out.Status
			if out.Shard != nil {
				ex.shard = out.Shard.ID
			}
		}
	}
	ex.end = time.Now()
	if err == nil {
		ex.status = resp.StatusCode
	}
	t.mu.Lock()
	t.log = append(t.log, ex)
	t.mu.Unlock()
	return resp, err
}

// take returns the recorded exchanges and clears the log.
func (t *timingTransport) take() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}
