package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/telemetry"
)

// TestFleetSnapshotAggregation runs a clean distributed campaign with
// per-worker collectors and checks the observability plane end to end:
// the coordinator's fleet-aggregated snapshot equals the sum of the
// worker snapshots, /v1/snapshot.json and /v1/metrics serve the
// aggregate, and /v1/fleet.json reports every worker final.
func TestFleetSnapshotAggregation(t *testing.T) {
	cfg := testConfig() // 2 campaigns x 10 injections
	coord, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	es := telemetry.NewEventStream(telemetry.New())
	defer es.Close()
	srv := httptest.NewServer(coord.ObsHandler(es))
	defer srv.Close()

	const workers = 2
	collectors := make([]*telemetry.Collector, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		collectors[w] = telemetry.New()
		go func(w int) {
			errs <- dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
				ID:        fmt.Sprintf("w%d", w),
				Resolve:   cli.Resolve,
				Golden:    core.NewGoldenCache(),
				Telemetry: collectors[w],
			})
		}(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if !coord.WaitFleetFinal(10 * time.Second) {
		t.Fatal("fleet never settled: a worker's final snapshot is missing")
	}

	total := uint64(len(cfg.Campaigns) * cfg.Injections)
	fleet := coord.FleetSnapshot()
	if fleet.RunsDone != total {
		t.Fatalf("fleet RunsDone = %d, want %d", fleet.RunsDone, total)
	}
	var sumDone, sumCycles uint64
	for _, c := range collectors {
		s := c.Snapshot()
		sumDone += s.RunsDone
		sumCycles += s.SimCycles
	}
	if fleet.RunsDone != sumDone || fleet.SimCycles != sumCycles {
		t.Fatalf("fleet totals %d runs/%d cycles != worker sums %d/%d",
			fleet.RunsDone, fleet.SimCycles, sumDone, sumCycles)
	}
	if len(fleet.Campaigns) != len(cfg.Campaigns) {
		t.Fatalf("fleet has %d campaign rows, want %d", len(fleet.Campaigns), len(cfg.Campaigns))
	}

	// The HTTP plane serves the same aggregate.
	resp, err := http.Get(srv.URL + "/v1/snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var served telemetry.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/v1/snapshot.json does not parse: %v", err)
	}
	if served.RunsDone != total {
		t.Fatalf("/v1/snapshot.json RunsDone = %d, want %d", served.RunsDone, total)
	}
	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		metrics.WriteString(sc.Text())
		metrics.WriteString("\n")
	}
	resp.Body.Close()
	want := fmt.Sprintf("faultinject_runs_done_total %d", total)
	if !strings.Contains(metrics.String(), want) {
		t.Fatalf("/v1/metrics lacks %q", want)
	}
	if !strings.Contains(metrics.String(), "# HELP faultinject_runs_done_total") {
		t.Fatal("/v1/metrics lacks HELP lines")
	}

	resp, err = http.Get(srv.URL + "/v1/fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var statuses []dist.WorkerStatus
	err = json.NewDecoder(resp.Body).Decode(&statuses)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/v1/fleet.json does not parse: %v", err)
	}
	if len(statuses) != workers {
		t.Fatalf("/v1/fleet.json lists %d workers, want %d", len(statuses), workers)
	}
	for _, ws := range statuses {
		if !ws.Final {
			t.Fatalf("worker %s not final after WaitFleetFinal: %+v", ws.ID, ws)
		}
	}

	// The /v1 protocol routes still answer through the observability mux.
	if lease := postLease(t, srv.URL, "late"); lease.Status != dist.StatusDone {
		t.Fatalf("post-campaign lease through ObsHandler: %+v, want %q", lease, dist.StatusDone)
	}
}

// TestWorkerDrain closes the worker's drain channel mid-campaign (from
// a hook that fires on its first shard completion) and checks graceful
// shutdown: the in-flight shard is delivered, the final snapshot is
// posted, the worker exits nil, and the remaining shards stay leasable
// for a successor.
func TestWorkerDrain(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 12,
		Seed:       11,
	}
	coord, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Drain fires as the first completion arrives: the shard in flight
	// is already being delivered, so the worker must hand it over, post
	// its final snapshot, and exit.
	drain := make(chan struct{})
	var completions atomic.Int64
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/complete" && completions.Add(1) == 1 {
			close(drain)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tel := telemetry.New()
	err = dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
		ID:        "draining",
		Resolve:   cli.Resolve,
		Golden:    core.NewGoldenCache(),
		Telemetry: tel,
		Drain:     drain,
	})
	if err != nil {
		t.Fatalf("draining worker: %v", err)
	}
	st := coord.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed shards = %d, want exactly 1 (drain after the first)", st.Completed)
	}
	if got := tel.Snapshot().RunsDone; got != 2 {
		t.Fatalf("drained worker's snapshot has %d runs, want 2 (its one shard)", got)
	}
	fleet := coord.Fleet()
	if len(fleet) != 1 || !fleet[0].Final {
		t.Fatalf("fleet after drain: %+v, want the worker marked final", fleet)
	}
	if fs := coord.FleetSnapshot(); fs.RunsDone != 2 {
		t.Fatalf("fleet snapshot RunsDone = %d, want 2", fs.RunsDone)
	}

	// The campaign is not stranded: a successor finishes the rest.
	errs := make(chan error, 1)
	go func() {
		errs <- dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
			ID: "successor", Resolve: cli.Resolve, Golden: core.NewGoldenCache(),
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("successor: %v", err)
	}
	if got := len(results[0].Records); got != 12 {
		t.Fatalf("merged %d records, want 12", got)
	}
}

// TestDistributedSpanTree runs a traced distributed campaign and checks
// the coordinator-side span tree is complete and well-parented: one
// campaign root, every shard span a child of it with a sibling "merge"
// phase, and the workers' forwarded run spans parented under their
// shard spans with the coordinator's trace ID throughout.
func TestDistributedSpanTree(t *testing.T) {
	cfg := core.CampaignConfig{
		Campaigns:  []core.CampaignCell{{Tool: "gefin-x86", Benchmark: "qsort", Structure: "rf.int"}},
		Injections: 6,
		Seed:       5,
	}
	tracer := telemetry.NewTracer("trace-test", "c")
	buf := telemetry.NewSpanBuffer()
	tracer.AddSink(buf)
	coord, err := dist.New(cfg, dist.CoordinatorOptions{ShardSize: 3, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	errs := make(chan error, 1)
	go func() {
		errs <- dist.RunWorker(context.Background(), srv.URL, dist.WorkerOptions{
			ID: "w0", Resolve: cli.Resolve, Golden: core.NewGoldenCache(),
		})
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("worker: %v", err)
	}

	spans := buf.Spans()
	byID := map[string]telemetry.Span{}
	var campaignID string
	shardSpans := map[string]bool{}
	runs, merges := 0, 0
	for _, sp := range spans {
		if sp.TraceID != "trace-test" {
			t.Fatalf("span %s has trace id %q, want trace-test", sp.SpanID, sp.TraceID)
		}
		byID[sp.SpanID] = sp
		switch sp.Kind {
		case telemetry.SpanCampaign:
			if sp.Name == "campaign" {
				if campaignID != "" {
					t.Fatal("two campaign root spans")
				}
				campaignID = sp.SpanID
			}
		case telemetry.SpanShard:
			shardSpans[sp.SpanID] = true
		case telemetry.SpanRun:
			runs++
		case telemetry.SpanPhase:
			if sp.Name == "merge" {
				merges++
			}
		}
	}
	if campaignID == "" {
		t.Fatal("no campaign root span")
	}
	if len(shardSpans) != 2 || merges != 2 {
		t.Fatalf("got %d shard spans and %d merge phases, want 2 and 2", len(shardSpans), merges)
	}
	if runs != cfg.Injections {
		t.Fatalf("got %d run spans, want %d", runs, cfg.Injections)
	}
	for _, sp := range spans {
		switch sp.Kind {
		case telemetry.SpanShard:
			if sp.ParentID != campaignID {
				t.Fatalf("shard span %s parented under %q, want the campaign root", sp.SpanID, sp.ParentID)
			}
			if sp.Worker != "w0" {
				t.Fatalf("shard span %s lacks the executing worker: %+v", sp.SpanID, sp)
			}
		case telemetry.SpanPhase:
			if sp.Name == "merge" && !shardSpans[sp.ParentID] {
				t.Fatalf("merge phase parented under %q, want a shard span", sp.ParentID)
			}
		}
	}
	// The worker's matrix span hangs under a pre-minted shard span; its
	// run spans hang under cell spans below it. Walk each run span up
	// and require the path to reach the campaign root.
	rootOf := func(sp telemetry.Span) string {
		for depth := 0; depth < 10; depth++ {
			if sp.ParentID == "" {
				return sp.SpanID
			}
			parent, ok := byID[sp.ParentID]
			if !ok {
				// Pre-minted shard IDs resolve once the shard span is
				// emitted; any other dangling parent is a broken tree.
				if shardSpans[sp.ParentID] {
					return campaignID
				}
				t.Fatalf("span %s has unknown parent %q", sp.SpanID, sp.ParentID)
			}
			sp = parent
		}
		t.Fatalf("span tree deeper than 10 at %s", sp.SpanID)
		return ""
	}
	for _, sp := range spans {
		if sp.Kind == telemetry.SpanRun {
			if got := rootOf(sp); got != campaignID {
				t.Fatalf("run span %s roots at %q, want the campaign root", sp.SpanID, got)
			}
		}
	}
}
