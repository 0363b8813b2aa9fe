package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// newTestGateway stands up a manager-backed gateway on a loopback port.
func newTestGateway(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	db := ldbs.Open(ldbs.Options{})
	if err := db.CreateTable(ldbs.Schema{
		Table:   "Flight",
		Columns: []ldbs.ColumnDef{{Name: "FreeTickets", Kind: sem.KindInt64}},
		Checks:  []ldbs.Check{{Column: "FreeTickets", Op: ldbs.CmpGE, Bound: sem.Int(0)}},
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert(context.Background(), "Flight", "AZ123", ldbs.Row{"FreeTickets": sem.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(core.NewLDBSStore(db))
	t.Cleanup(m.Close)
	if err := m.RegisterAtomicObject("flight", core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(wire.NewManagerBackend(m), opts)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve("127.0.0.1:0") }()
	select {
	case <-srv.Ready():
	case err := <-errc:
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

// TestSessionRoundTrip: a mux session books a seat end to end.
func TestSessionRoundTrip(t *testing.T) {
	_, addr := newTestGateway(t, Options{})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	sc, resumed, err := mc.Session("phone-1", "")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("fresh session reported resumed")
	}
	if err := sc.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Invoke("t1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := sc.Apply("t1", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if v, err := sc.Read("t1", "flight"); err != nil || v.Int64() != 49 {
		t.Fatalf("read = %v, %v", v, err)
	}
	if err := sc.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	if st, err := sc.State("t1"); err != nil || st != "Committed" {
		t.Fatalf("state = %q, %v", st, err)
	}
}

// TestConcurrentSessionsOneConn: many sessions interleave on one conn and
// responses find their callers by correlation id.
func TestConcurrentSessionsOneConn(t *testing.T) {
	_, addr := newTestGateway(t, Options{})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, _, err := mc.Session(fmt.Sprintf("s%d", i), "")
			if err != nil {
				errs <- err
				return
			}
			tx := fmt.Sprintf("t%d", i)
			if err := sc.Begin(tx); err != nil {
				errs <- err
				return
			}
			if err := sc.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
				errs <- err
				return
			}
			if err := sc.Apply(tx, "flight", sem.Int(-1)); err != nil {
				errs <- err
				return
			}
			if err := sc.Commit(tx); err != nil {
				errs <- err
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLegacyClientOnGateway: a plain wire.Conn (no sessions, no ids) books
// through the gateway unchanged.
func TestLegacyClientOnGateway(t *testing.T) {
	_, addr := newTestGateway(t, Options{})
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("legacy"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("legacy", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("legacy", "flight", sem.Int(-2)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("legacy"); err != nil {
		t.Fatal(err)
	}
}

// TestQuotaExhaustionReturnsRetryAfter: once the global admission bucket is
// dry, begin is rejected promptly with a retry-after hint — not queued, not
// hung. (Satellite: "quota exhaustion returns retry-after".)
func TestQuotaExhaustionReturnsRetryAfter(t *testing.T) {
	_, addr := newTestGateway(t, Options{Rate: 0.001, Burst: 2})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	sc, _, err := mc.Session("greedy", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Begin("q1"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Begin("q2"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = sc.Begin("q3")
	if err == nil {
		t.Fatal("third begin admitted past a burst of 2")
	}
	if !errors.Is(err, wire.ErrRetryAfter) {
		t.Fatalf("err = %v, want retry-after", err)
	}
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("err %T lacks the typed rejection", err)
	}
	if ra.Reason != "quota" || ra.After <= 0 {
		t.Fatalf("rejection = %+v", ra)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("rejection took %s — sheds must not queue", elapsed)
	}
}

// TestTenantQuotaIsolation: one tenant draining its bucket does not block
// another tenant's admissions.
func TestTenantQuotaIsolation(t *testing.T) {
	_, addr := newTestGateway(t, Options{TenantRate: 0.001, TenantBurst: 1})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	a, _, err := mc.Session("sa", "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := mc.Session("sb", "tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Begin("a1"); err != nil {
		t.Fatal(err)
	}
	err = a.Begin("a2")
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) || ra.Reason != "tenant" {
		t.Fatalf("tenant-a second begin: %v, want tenant rejection", err)
	}
	if err := b.Begin("b1"); err != nil {
		t.Fatalf("tenant-b blocked by tenant-a's quota: %v", err)
	}
}

// TestSessionCapReturnsRetryAfter: the MaxSessions cap rejects new attaches
// with a retry-after, and resuming existing sessions still works.
func TestSessionCapReturnsRetryAfter(t *testing.T) {
	_, addr := newTestGateway(t, Options{MaxSessions: 2})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if _, _, err := mc.Attach("c1", ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mc.Attach("c2", ""); err != nil {
		t.Fatal(err)
	}
	_, _, err = mc.Attach("c3", "")
	var ra *wire.RetryAfterError
	if !errors.As(err, &ra) || ra.Reason != "sessions" {
		t.Fatalf("attach past cap: %v, want sessions rejection", err)
	}
	if resumed, _, err := mc.Attach("c1", ""); err != nil || !resumed {
		t.Fatalf("re-attach under cap: resumed=%v err=%v", resumed, err)
	}
}

// TestDetachParksAndResume: detach parks the session (live transaction
// asleep, no connection state), a fresh connection resumes it and finishes
// the booking. The park/resume cycle is the paper's disconnection handling
// at gateway scale.
func TestDetachParksAndResume(t *testing.T) {
	srv, addr := newTestGateway(t, Options{})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := mc.Session("mob", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Begin("trip"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Invoke("trip", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := sc.Apply("trip", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	seq := sc.Seq("trip")
	if err := mc.Detach("mob"); err != nil {
		t.Fatal(err)
	}
	if bound, parked := srv.SessionCounts(); bound != 0 || parked != 1 {
		t.Fatalf("after detach: bound=%d parked=%d", bound, parked)
	}
	if srv.ParkedBytes() <= 0 {
		t.Fatal("parked session costs no bytes?")
	}
	mc.Close()

	mc2, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	resumed, owned, err := mc2.Attach("mob", "")
	if err != nil {
		t.Fatal(err)
	}
	if !resumed || len(owned) != 1 || owned[0] != "trip" {
		t.Fatalf("resume: resumed=%v owned=%v", resumed, owned)
	}
	sc2 := &SessionClient{m: mc2, id: "mob", seqs: map[string]uint64{"trip": seq}}
	if ok, err := sc2.Awake("trip"); err != nil || !ok {
		t.Fatalf("awake: %v, %v", ok, err)
	}
	if err := sc2.Commit("trip"); err != nil {
		t.Fatal(err)
	}
	if bound, parked := srv.SessionCounts(); bound != 1 || parked != 0 {
		t.Fatalf("after resume: bound=%d parked=%d", bound, parked)
	}
	if v, err := readCommitted(mc2); err != nil || v != 49 {
		t.Fatalf("committed value = %d, %v", v, err)
	}
}

// readCommitted reads the flight counter via a throwaway reader session.
func readCommitted(mc *MuxConn) (int64, error) {
	sc, _, err := mc.Session("reader", "")
	if err != nil {
		return 0, err
	}
	if err := sc.Begin("read-tx"); err != nil {
		return 0, err
	}
	if err := sc.Invoke("read-tx", "flight", sem.Read, ""); err != nil {
		return 0, err
	}
	v, err := sc.Read("read-tx", "flight")
	if err != nil {
		return 0, err
	}
	if err := sc.Commit("read-tx"); err != nil {
		return 0, err
	}
	return v.Int64(), nil
}

// TestAwakenRacesDetach: one connection resumes + drives the session while
// the old connection's detach/teardown is still in flight. Whatever
// interleaving happens, the re-attached session must end the race bound,
// with its transaction either live (re-awakened) or asleep — never lost.
// (Satellite: "parked-session awaken races with detach".)
func TestAwakenRacesDetach(t *testing.T) {
	srv, addr := newTestGateway(t, Options{})
	for round := 0; round < 20; round++ {
		sid := fmt.Sprintf("racer-%d", round)
		tx := fmt.Sprintf("race-tx-%d", round)
		mc1, err := DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		sc, _, err := mc1.Session(sid, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Begin(tx); err != nil {
			t.Fatal(err)
		}
		if err := sc.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
			t.Fatal(err)
		}

		mc2, err := DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the dying client: detach (or just vanish)
			defer wg.Done()
			if round%2 == 0 {
				mc1.Detach(sid)
			}
			mc1.Close()
		}()
		var owned []string
		var attachErr error
		go func() { // the reconnecting client: resume on a fresh conn
			defer wg.Done()
			_, owned, attachErr = mc2.Attach(sid, "")
		}()
		wg.Wait()
		if attachErr != nil {
			t.Fatalf("round %d: attach: %v", round, attachErr)
		}

		// The session must be bound to mc2 now; the transaction must still
		// exist, asleep or live, and must be drivable to completion.
		sc2 := &SessionClient{m: mc2, id: sid, seqs: map[string]uint64{tx: sc.Seq(tx)}}
		st, err := sc2.State(tx)
		if err != nil {
			t.Fatalf("round %d: state: %v (owned=%v)", round, err, owned)
		}
		switch st {
		case "Sleeping":
			if ok, err := sc2.Awake(tx); err != nil || !ok {
				t.Fatalf("round %d: awake: %v, %v", round, ok, err)
			}
		case "Active", "Waiting":
			// still live: the re-attach won the race before any park
		default:
			t.Fatalf("round %d: transaction in state %q after race", round, st)
		}
		if err := sc2.Abort(tx); err != nil {
			t.Fatalf("round %d: abort: %v", round, err)
		}
		mc2.Close()
	}
	// No session leaked a binding: eventually everything is parked.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if bound, _ := srv.SessionCounts(); bound == 0 {
			break
		}
		if time.Now().After(deadline) {
			bound, parked := srv.SessionCounts()
			t.Fatalf("sessions still bound after all conns closed: bound=%d parked=%d", bound, parked)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplayAcrossGatewayReconnectExactlyOnce: a mutating request retried
// through a new connection + resumed session is answered from the
// exactly-once window, not re-executed. The apply of -1 lands once even
// though the client sent it twice. (Satellite: "replay of a mutating
// request across a gateway reconnect stays exactly-once".)
func TestReplayAcrossGatewayReconnectExactlyOnce(t *testing.T) {
	_, addr := newTestGateway(t, Options{})
	mc1, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, err := mc1.Session("flaky", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Begin("book"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Invoke("book", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := sc.Apply("book", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	applySeq := sc.Seq("book")
	// The connection dies before the (hypothetical) response to a commit
	// arrives; the client reconnects, resumes, and retries both the apply
	// it is unsure about and the commit.
	mc1.Close()

	mc2, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	resumed, _, err := mc2.Attach("flaky", "")
	if err != nil || !resumed {
		t.Fatalf("resume: %v, resumed=%v", err, resumed)
	}
	if st, err := (&SessionClient{m: mc2, id: "flaky", seqs: map[string]uint64{}}).State("book"); err != nil {
		t.Fatal(err)
	} else if st == "Sleeping" {
		resp, err := mc2.Call(&wire.Request{Op: wire.OpAwake, Tx: "book", Session: "flaky", Seq: applySeq + 1})
		if err != nil || !resp.Resumed {
			t.Fatalf("awake: %v", err)
		}
	}
	// Retry the apply with its original seq: must replay, not re-execute.
	wv := wire.FromSem(sem.Int(-1))
	resp, err := mc2.Call(&wire.Request{Op: wire.OpApply, Tx: "book", Object: "flight",
		Operand: &wv, Session: "flaky", Seq: applySeq})
	if err != nil {
		t.Fatalf("apply retry: %v", err)
	}
	if !resp.Replayed {
		t.Fatal("apply retry executed instead of replaying from the window")
	}
	// Finish and verify the seat decremented exactly once: 50 → 49.
	if _, err := mc2.Call(&wire.Request{Op: wire.OpCommit, Tx: "book", Session: "flaky", Seq: applySeq + 2}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if v, err := readCommitted(mc2); err != nil || v != 49 {
		t.Fatalf("committed value = %d, %v (want 49: the retried apply must not double-book)", v, err)
	}
}

// TestLaneSaturationSheds: with the only lane worker occupied by a blocked
// invoke and its queue full, further session requests shed with a lane
// rejection instead of queueing unboundedly.
func TestLaneSaturationSheds(t *testing.T) {
	_, addr := newTestGateway(t, Options{
		Lanes: 1, LaneDepth: 1, LaneWorkers: 1,
		InvokeTimeout: 5 * time.Second, // frees the worker after the test
	})
	// Short call timeout: the flood call that lands in the (stuck) queue
	// times out client-side instead of stalling the loop.
	mc, err := DialMuxTimeout(addr, time.Second, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	blocker, _, err := mc.Session("blocker", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := blocker.Begin("hold"); err != nil {
		t.Fatal(err)
	}
	if err := blocker.Invoke("hold", "flight", sem.Assign, ""); err != nil {
		t.Fatal(err)
	}
	waiter, _, err := mc.Session("waiter", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := waiter.Begin("wait"); err != nil {
		t.Fatal(err)
	}
	// assign vs add/sub conflict: this invoke waits for the grant,
	// occupying the only lane worker. The client-side call times out; the
	// server-side worker stays blocked, which is the condition under test.
	go waiter.Invoke("wait", "flight", sem.AddSub, "")
	time.Sleep(200 * time.Millisecond)

	sawLaneReject := false
	for i := 0; i < 50 && !sawLaneReject; i++ {
		_, err := mc.Call(&wire.Request{Op: wire.OpState, Tx: "hold", Session: "blocker"})
		var ra *wire.RetryAfterError
		if errors.As(err, &ra) && ra.Reason == "lane" {
			sawLaneReject = true
		}
	}
	if !sawLaneReject {
		t.Fatal("no lane rejection while the only worker was blocked")
	}
}

// TestExpireParked: the retention sweep reaps idle parked sessions and
// returns their bytes.
func TestExpireParked(t *testing.T) {
	srv, addr := newTestGateway(t, Options{SessionRetention: -1})
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("idle-%d", i)
		if _, _, err := mc.Attach(id, ""); err != nil {
			t.Fatal(err)
		}
		if err := mc.Detach(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, parked := srv.SessionCounts(); parked != 5 {
		t.Fatalf("parked = %d, want 5", parked)
	}
	if n := srv.ExpireParked(0); n != 5 {
		t.Fatalf("expired %d, want 5", n)
	}
	if _, parked := srv.SessionCounts(); parked != 0 {
		t.Fatalf("parked = %d after expiry", parked)
	}
	if b := srv.ParkedBytes(); b != 0 {
		t.Fatalf("parked bytes = %d after expiry, want 0", b)
	}
}

// TestTokenBucket exercises the limiter directly with a fake clock.
func TestTokenBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newTokenBucket(10, 2, t0)
	if ok, _ := b.take(1, t0); !ok {
		t.Fatal("burst token refused")
	}
	if ok, _ := b.take(1, t0); !ok {
		t.Fatal("second burst token refused")
	}
	ok, wait := b.take(1, t0)
	if ok {
		t.Fatal("empty bucket granted")
	}
	if wait <= 0 || wait > 200*time.Millisecond {
		t.Fatalf("wait hint = %s, want ~100ms at 10/s", wait)
	}
	if ok, _ := b.take(1, t0.Add(150*time.Millisecond)); !ok {
		t.Fatal("refill after 150ms at 10/s refused")
	}
	// Refill never exceeds burst.
	if ok, _ := b.take(2, t0.Add(time.Hour)); !ok {
		t.Fatal("full burst refused after long idle")
	}
	if ok, _ := b.take(1, t0.Add(time.Hour)); ok {
		t.Fatal("bucket exceeded burst capacity")
	}
}
