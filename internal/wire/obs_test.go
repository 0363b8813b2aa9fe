package wire_test

import (
	"context"
	"testing"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/ldbs"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// newObsServer is newTestServer with a registry wired through the manager
// and the wire layer.
func newObsServer(t *testing.T) (*obs.Registry, string) {
	t.Helper()
	reg := obs.NewRegistry()
	db := ldbs.Open(ldbs.Options{})
	if err := db.CreateTable(ldbs.Schema{
		Table:   "Flight",
		Columns: []ldbs.ColumnDef{{Name: "FreeTickets", Kind: sem.KindInt64}},
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert(context.Background(), "Flight", "AZ123",
		ldbs.Row{"FreeTickets": sem.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(core.NewLDBSStore(db),
		core.WithObservability(core.NewObservability(reg, 256)))
	if err := m.RegisterAtomicObject("flight",
		core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}); err != nil {
		t.Fatal(err)
	}
	srv := startGateway(t, wire.NewManagerBackend(m), gateway.Options{Obs: reg})
	return reg, srv.Addr().String()
}

// TestStatsMetricsRoundTrip drives one booking and checks the stats op
// carries the live metric snapshot across the wire.
func TestStatsMetricsRoundTrip(t *testing.T) {
	_, addr := newObsServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Begin("user1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("user1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("user1", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("user1"); err != nil {
		t.Fatal(err)
	}

	stats, metrics, err := cn.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if stats["committed"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
	// Manager-level metrics travelled with the response.
	if metrics["gtm_commits_total"] != 1 || metrics["gtm_tx_begun_total"] != 1 {
		t.Fatalf("gtm metrics missing: %v", metrics)
	}
	// Wire-level metrics: begin+invoke+apply+commit+this stats request.
	if got := metrics[`wire_requests_total{op="begin"}`]; got != 1 {
		t.Fatalf("begin count = %d: %v", got, metrics)
	}
	if got := metrics[`wire_requests_total{op="stats"}`]; got != 1 {
		t.Fatalf("stats count = %d: %v", got, metrics)
	}
	// Latency is observed after dispatch, so the in-flight stats request
	// itself is not yet in the histogram.
	if metrics["wire_request_seconds_count"] < 4 {
		t.Fatalf("latency count = %d", metrics["wire_request_seconds_count"])
	}
	if metrics["wire_connections_total"] != 1 {
		t.Fatalf("connections = %d", metrics["wire_connections_total"])
	}

	// Errors are counted.
	if err := cn.Begin("user1"); err == nil {
		t.Fatal("duplicate begin must fail")
	}
	_, metrics, err = cn.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if metrics["wire_request_errors_total"] != 1 {
		t.Fatalf("errors = %d", metrics["wire_request_errors_total"])
	}
}

// TestStatsWithoutObs checks the server still answers stats (without a
// metrics map) when no registry is configured.
func TestStatsWithoutObs(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	stats, metrics, err := cn.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("stats missing")
	}
	if len(metrics) != 0 {
		t.Fatalf("unexpected metrics: %v", metrics)
	}
}
