package wire_test

import (
	"strings"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/faultnet"
	"preserial/internal/gateway"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// newTestServerOpts is newTestServer with custom server options.
func newTestServerOpts(t *testing.T, opts gateway.Options) (*gateway.Server, string) {
	t.Helper()
	store := core.NewMemStore()
	ref := core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}
	store.Seed(ref, sem.Int(50))
	m := core.NewManager(store)
	if err := m.RegisterAtomicObject("flight", ref); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	srv := startGateway(t, wire.NewManagerBackend(m), opts)
	return srv, srv.Addr().String()
}

func TestSweepLoopForgetsAfterRetention(t *testing.T) {
	_, addr := newTestServerOpts(t, gateway.Options{Retention: 60 * time.Millisecond})
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("done"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("done"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := cn.State("done"); err != nil {
			if !strings.Contains(err.Error(), "unknown transaction") {
				t.Fatalf("unexpected error: %v", err)
			}
			return // the sweeper loop forgot it on its own
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeper loop never forgot the terminal transaction")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAttachAfterDisconnectFinishesCommit(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const tx = "mobile-1"
	if err := cn.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply(tx, "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	// The mobile link dies mid-transaction.
	cn.Close()

	cn2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	// The server's teardown races us. Don't attach yet — attaching moves
	// ownership to this connection, which (deliberately) stops the dying
	// connection from putting the transaction to sleep. Watch the state
	// first, attach once it is asleep.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st, err := cn2.State(tx)
		if err != nil {
			t.Fatalf("state: %v", err)
		}
		if st == "Sleeping" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transaction stuck in %s after the disconnect", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cn2.Attach(tx); err != nil {
		t.Fatal(err)
	}
	resumed, err := cn2.Awake(tx)
	if err != nil || !resumed {
		t.Fatalf("awake: resumed=%v err=%v", resumed, err)
	}
	if err := cn2.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// The booking made before the disconnection is durable exactly once.
	if err := cn2.Begin("check"); err != nil {
		t.Fatal(err)
	}
	if err := cn2.Invoke("check", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	v, err := cn2.Read("check", "flight")
	if err != nil || v.Int64() != 49 {
		t.Fatalf("flight = %s (%v), want 49", v, err)
	}
}

func TestReplayedCommitAcrossReconnect(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const tx = "seq-tx"
	// Mutations carry explicit sequence numbers (what ResilientConn does
	// internally) through Conn.Call, exported to tests by export_test.go.
	mustCall := func(c *wire.Conn, req *wire.Request) *wire.Response {
		t.Helper()
		resp, err := c.Call(req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		return resp
	}
	mustCall(cn, &wire.Request{Op: wire.OpBegin, Tx: tx, Seq: 1})
	mustCall(cn, &wire.Request{Op: wire.OpInvoke, Tx: tx, Object: "flight", Class: wire.ClassName(sem.AddSub), Seq: 2})
	op := sem.Int(-1)
	wv := wire.FromSem(op)
	mustCall(cn, &wire.Request{Op: wire.OpApply, Tx: tx, Object: "flight", Operand: &wv, Seq: 3})
	first := mustCall(cn, &wire.Request{Op: wire.OpCommit, Tx: tx, Seq: 4})
	if first.Replayed {
		t.Fatal("first commit must not be a replay")
	}
	// The ack is "lost": the client reconnects and retries the same seq.
	cn.Close()
	cn2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	mustCall(cn2, &wire.Request{Op: wire.OpAttach, Tx: tx})
	second := mustCall(cn2, &wire.Request{Op: wire.OpCommit, Tx: tx, Seq: 4})
	if !second.Replayed {
		t.Fatal("retried commit must be served from the replay window")
	}
	// Exactly one application: 50 − 1 = 49.
	mustCall(cn2, &wire.Request{Op: wire.OpBegin, Tx: "check"})
	mustCall(cn2, &wire.Request{Op: wire.OpInvoke, Tx: "check", Object: "flight", Class: wire.ClassName(sem.Read)})
	v, err := cn2.Read("check", "flight")
	if err != nil || v.Int64() != 49 {
		t.Fatalf("flight = %s (%v), want 49", v, err)
	}
}

func TestDrainSleepsLiveTransactions(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := newTestServerOpts(t, gateway.Options{Obs: reg})
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("live-1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("live-1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}

	rep := srv.Drain(2 * time.Second)
	if rep.Slept != 1 {
		t.Fatalf("drain slept %d transactions, want 1", rep.Slept)
	}
	if !rep.CommitsFlushed {
		t.Fatal("drain reported unflushed commits on an idle server")
	}
	if got := reg.Snapshot()["gtm_drain_sleeping_total"]; got != 1 {
		t.Fatalf("gtm_drain_sleeping_total = %d, want 1", got)
	}
	// The listener is gone; new connections are refused.
	if _, err := wire.DialTimeout(addr, 200*time.Millisecond, time.Second); err == nil {
		t.Fatal("dial after drain must fail")
	}
}

func TestResilientConnRecoversFromKilledConnections(t *testing.T) {
	_, addr := newTestServer(t)
	proxy, err := faultnet.New(addr, faultnet.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	rc := wire.DialResilient(proxy.Addr(), wire.ResilientOptions{
		CallTimeout: 2 * time.Second,
		BackoffBase: 10 * time.Millisecond,
		BackoffCap:  50 * time.Millisecond,
		MaxAttempts: 20,
		Seed:        9,
	})
	defer rc.Close()

	const tx = "roaming-1"
	if err := rc.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if err := rc.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	// The network dies under the client mid-transaction.
	proxy.KillAll()
	if err := rc.Apply(tx, "flight", sem.Int(-1)); err != nil {
		t.Fatalf("apply after kill: %v", err)
	}
	proxy.KillAll()
	if err := rc.Commit(tx); err != nil {
		t.Fatalf("commit after kill: %v", err)
	}
	if rc.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want ≥ 1", rc.Reconnects())
	}
	// Exactly one booking despite two dead connections.
	if err := rc.Begin("check"); err != nil {
		t.Fatal(err)
	}
	if err := rc.Invoke("check", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	v, err := rc.Read("check", "flight")
	if err != nil || v.Int64() != 49 {
		t.Fatalf("flight = %s (%v), want 49", v, err)
	}
}
