package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"servdisc"
	"servdisc/internal/netaddr"
	"servdisc/internal/obs"
	"servdisc/internal/packet"
)

// newTestServer assembles the daemon's HTTP surface over a small live
// pipeline: a few packets ingested, one checkpoint cut, one query served
// — enough traffic that every instrument has observations when the
// scrape-shape assertions run.
func newTestServer(t *testing.T) (*httptest.Server, *servdisc.Pipeline) {
	t.Helper()
	cfg := servdisc.Config{
		Campus:     "128.125.0.0/16",
		QueryIndex: true,
		Checkpoint: &servdisc.CheckpointOptions{Dir: t.TempDir()},
	}
	pl, err := servdisc.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pl.Close)

	bld := packet.NewBuilder(0)
	client := packet.Endpoint{Addr: netaddr.MustParseV4("64.9.0.1"), Port: 40000}
	at := time.Date(2006, 9, 19, 10, 0, 0, 0, time.UTC)
	var batch []packet.Packet
	for i := 0; i < 16; i++ {
		server := packet.Endpoint{Addr: netaddr.MustParseV4("128.125.1.1") + netaddr.V4(i), Port: 80}
		batch = append(batch, *bld.SynAck(at.Add(time.Duration(i)*time.Second), server, client, 1, 1))
	}
	pl.HandleBatch(batch)
	if _, err := pl.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}

	var latest atomic.Pointer[servdisc.Inventory]
	latest.Store(pl.Snapshot())
	if _, err := pl.Query(servdisc.Query{Port: 80}); err != nil {
		t.Fatal(err)
	}

	reg := pl.Metrics()
	subs := newSubRegistry(reg)
	sub := pl.Subscribe(16)
	subs.add("test", sub.Dropped)
	registerDaemonSeries(reg, &latest, pl)
	srv := httptest.NewServer(newMux(&latest, pl, subs))
	t.Cleanup(srv.Close)
	return srv, pl
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsExposition scrapes the live daemon mux and checks the body
// against the strict exposition grammar plus the presence of every series
// family the pre-registry emitter served and the new latency histograms.
func TestMetricsExposition(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if err := obs.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails strict lint: %v\nbody:\n%s", err, body)
	}
	for _, want := range []string{
		// flow counters and inventory gauges (pre-registry names, kept)
		"servdisc_packets_total ",
		"servdisc_packets_dispatched_total ",
		"servdisc_packets_dropped_total ",
		"servdisc_services ",
		"servdisc_scanners ",
		"servdisc_events_published_total ",
		"servdisc_events_delivered_total ",
		"servdisc_events_dropped_total ",
		"servdisc_query_index_services ",
		"servdisc_checkpoints_total ",
		"servdisc_checkpoint_baselines_total ",
		"servdisc_checkpoint_failures_total ",
		"servdisc_checkpoint_bytes_written_total ",
		"servdisc_checkpoint_chunks_skipped_total ",
		"servdisc_checkpoint_last_bytes ",
		"servdisc_checkpoint_last_duration_seconds ",
		`servdisc_subscriber_dropped_total{subscriber="departed"}`,
		`servdisc_subscriber_dropped_total{subscriber="test"}`,
		// latency histograms from the pipeline's own instrumentation
		"servdisc_ingest_batch_seconds_bucket",
		"servdisc_ingest_dispatch_seconds_bucket",
		"servdisc_snapshot_merge_seconds_bucket",
		"servdisc_checkpoint_write_seconds_bucket",
		`servdisc_query_seconds_bucket{dim="port"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestFlightEndpoint checks the /debug/flight dump carries the trace
// events the pipeline recorded (a sealed snapshot and a checkpoint cut at
// minimum).
func TestFlightEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/debug/flight")
	if code != 200 {
		t.Fatalf("GET /debug/flight: status %d", code)
	}
	for _, want := range []string{"snapshot-sealed", "checkpoint-cut"} {
		if !strings.Contains(body, want) {
			t.Errorf("flight dump missing %q event:\n%s", want, body)
		}
	}
}

// TestServicesHugeLimit asks /services for a page limit far beyond any
// inventory: the daemon must answer with the whole (small) inventory as a
// normal page rather than size an allocation by the client's number.
func TestServicesHugeLimit(t *testing.T) {
	srv, pl := newTestServer(t)
	code, body := get(t, srv.URL+"/services?limit=1099511627776")
	if code != 200 {
		t.Fatalf("GET /services?limit=2^40: status %d: %s", code, body)
	}
	var page struct {
		Services []json.RawMessage `json:"services"`
		Next     string            `json:"next_page_token"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatalf("decode page: %v\n%s", err, body)
	}
	if want := pl.Snapshot().Len(); len(page.Services) != want || page.Next != "" {
		t.Errorf("page holds %d services (next %q), want all %d and no next token",
			len(page.Services), page.Next, want)
	}
}

// TestHealthz keeps the liveness probe answering 200 with the packet
// position.
func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != 200 {
		t.Fatalf("GET /healthz: status %d", code)
	}
	if !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("healthz body = %q, want status ok", body)
	}
}
