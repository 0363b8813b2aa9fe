package wire_test

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

func TestValueRoundTrip(t *testing.T) {
	values := []sem.Value{sem.Null(), sem.Int(-5), sem.Float(2.5), sem.Str("hi")}
	for _, v := range values {
		got, err := wire.FromSem(v).ToSem()
		if err != nil || !got.Equal(v) {
			t.Errorf("roundtrip %s -> %s (%v)", v, got, err)
		}
	}
	if _, err := (wire.Value{Kind: "zap"}).ToSem(); err == nil {
		t.Error("unknown kind must fail")
	}
	if v, err := (wire.Value{}).ToSem(); err != nil || !v.IsNull() {
		t.Error("empty kind is null")
	}
}

func TestClassNames(t *testing.T) {
	for _, c := range sem.Classes {
		parsed, err := wire.ParseClass(wire.ClassName(c))
		if err != nil || parsed != c {
			t.Errorf("class %s: %v %v", c, parsed, err)
		}
	}
	if _, err := wire.ParseClass("nope"); err == nil {
		t.Error("unknown class must fail")
	}
	if !strings.HasPrefix(wire.ClassName(sem.Class(42)), "class(") {
		t.Error("unknown class name")
	}
}

func TestFraming(t *testing.T) {
	var buf bytes.Buffer
	want := wire.Request{Op: wire.OpInvoke, Tx: "t1", Object: "X", Class: "add/sub"}
	if err := wire.WriteMsg(&buf, &want); err != nil {
		t.Fatal(err)
	}
	var got wire.Request
	if err := wire.ReadMsg(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip %+v -> %+v", want, got)
	}
	// Oversized frames are rejected on both sides.
	big := wire.Request{Tx: strings.Repeat("x", wire.MaxFrame)}
	if err := wire.WriteMsg(&buf, &big); err == nil {
		t.Error("oversized write must fail")
	}
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if err := wire.ReadMsg(&hdr, &got); err == nil {
		t.Error("oversized read must fail")
	}
}

// startGateway serves b through the gateway front end on an ephemeral
// loopback port until the test ends.
func startGateway(t testing.TB, b wire.Backend, opts gateway.Options) *gateway.Server {
	t.Helper()
	srv := gateway.NewServer(b, opts)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve("127.0.0.1:0") }()
	select {
	case <-srv.Ready():
	case err := <-errCh:
		t.Fatalf("serve: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never bound")
	}
	t.Cleanup(func() {
		srv.Close()
		<-errCh
	})
	return srv
}

// newTestServer builds a full middleware stack: ldbs + GTM + TCP server on
// an ephemeral port.
func newTestServer(t *testing.T) (*gateway.Server, string) {
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
	if err := tx.Insert(context.Background(), "Flight", "AZ123",
		ldbs.Row{"FreeTickets": sem.Int(50)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(core.NewLDBSStore(db))
	if err := m.RegisterAtomicObject("flight",
		core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}); err != nil {
		t.Fatal(err)
	}
	srv := startGateway(t, wire.NewManagerBackend(m), gateway.Options{})
	return srv, srv.Addr().String()
}

func TestEndToEndBooking(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Ping(); err != nil {
		t.Fatal(err)
	}
	objs, err := cn.Objects()
	if err != nil || len(objs) != 1 || objs[0] != "flight" {
		t.Fatalf("objects = %v, %v", objs, err)
	}
	if err := cn.Begin("user1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("user1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	v, err := cn.Read("user1", "flight")
	if err != nil || v.Int64() != 50 {
		t.Fatalf("read = %s, %v", v, err)
	}
	if err := cn.Apply("user1", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("user1"); err != nil {
		t.Fatal(err)
	}
	st, err := cn.State("user1")
	if err != nil || st != "Committed" {
		t.Fatalf("state = %q, %v", st, err)
	}
}

func TestConcurrentConnectionsShareObject(t *testing.T) {
	_, addr := newTestServer(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cn, err := wire.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cn.Close()
			tx := string(rune('a' + i))
			if err := cn.Begin(tx); err != nil {
				errs <- err
				return
			}
			if err := cn.Invoke(tx, "flight", sem.AddSub, ""); err != nil {
				errs <- err
				return
			}
			if err := cn.Apply(tx, "flight", sem.Int(-1)); err != nil {
				errs <- err
				return
			}
			errs <- cn.Commit(tx)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Final tickets: 50 − 8 = 42.
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("check"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("check", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	v, err := cn.Read("check", "flight")
	if err != nil || v.Int64() != 42 {
		t.Fatalf("final = %s, %v; want 42", v, err)
	}
}

func TestDisconnectionPutsTransactionToSleepAndAttachResumes(t *testing.T) {
	_, addr := newTestServer(t)

	cn1, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn1.Begin("mobile"); err != nil {
		t.Fatal(err)
	}
	if err := cn1.Invoke("mobile", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn1.Apply("mobile", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	// The mobile client vanishes mid-transaction.
	cn1.Close()

	// Poll until the server has processed the hang-up.
	cn2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cn2.State("mobile")
		if err == nil && st == "Sleeping" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transaction never went to sleep (state %q, err %v)", st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reconnect: attach, awake, finish the booking.
	if err := cn2.Attach("mobile"); err != nil {
		t.Fatal(err)
	}
	resumed, err := cn2.Awake("mobile")
	if err != nil || !resumed {
		t.Fatalf("awake = %v, %v", resumed, err)
	}
	if err := cn2.Commit("mobile"); err != nil {
		t.Fatal(err)
	}
	st, err := cn2.State("mobile")
	if err != nil || st != "Committed" {
		t.Fatalf("state = %q, %v", st, err)
	}
}

func TestServerErrors(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Begin(""); err == nil {
		t.Error("empty tx id must fail")
	}
	if err := cn.Invoke("ghost", "flight", sem.AddSub, ""); err == nil {
		t.Error("unknown tx must fail")
	}
	if err := cn.Attach("ghost"); err == nil {
		t.Error("attach to unknown tx must fail")
	}
	if err := cn.Begin("t"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("t"); err == nil {
		t.Error("duplicate begin must fail")
	}
	if _, err := cn.Read("t", "flight"); err == nil {
		t.Error("read before invoke must fail")
	}
	if err := cn.Apply("t", "flight", sem.Int(1)); err == nil {
		t.Error("apply before invoke must fail")
	}
	// Unknown op goes through the raw framing path.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := wire.WriteMsg(raw, &wire.Request{Op: "zap"}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := wire.ReadMsg(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "unknown op") {
		t.Errorf("resp = %+v", resp)
	}
}

func TestConstraintViolationOverWire(t *testing.T) {
	_, addr := newTestServer(t)
	// Two bookings race for the last 50 seats — drain to 0 then one more.
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("drain"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("drain", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("drain", "flight", sem.Int(-50)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("drain"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("over"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("over", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("over", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	err = cn.Commit("over")
	if err == nil || !strings.Contains(err.Error(), "sst-failure") {
		t.Fatalf("overbooking commit = %v, want sst-failure", err)
	}
}

func TestIntrospectionOps(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("t1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("t1", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}

	stats, err := cn.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["begun"] != 1 || stats["grants"] != 1 {
		t.Errorf("stats = %v", stats)
	}

	info, err := cn.ObjectInfo("flight")
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "flight" || len(info.Pending) != 1 || info.Pending[0].Tx != "t1" {
		t.Errorf("info = %+v", info)
	}
	if info.Pending[0].Class != "add/sub" {
		t.Errorf("pending class = %s", info.Pending[0].Class)
	}
	v, err := info.Members[""].ToSem()
	if err != nil || v.Int64() != 50 {
		t.Errorf("permanent = %v, %v", v, err)
	}
	if _, err := cn.ObjectInfo("nope"); err == nil {
		t.Error("unknown object must fail")
	}

	txs, err := cn.Transactions()
	if err != nil || len(txs) != 1 || txs[0].ID != "t1" || txs[0].State != "Active" {
		t.Fatalf("txs = %+v, %v", txs, err)
	}
	if err := cn.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	txs, _ = cn.Transactions()
	if txs[0].State != "Committed" {
		t.Errorf("after commit, txs = %+v", txs)
	}
}

func TestWireClientSleepAwakeAbort(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("s1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("s1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Sleep("s1"); err != nil {
		t.Fatal(err)
	}
	if st, _ := cn.State("s1"); st != "Sleeping" {
		t.Fatalf("state = %q", st)
	}
	resumed, err := cn.Awake("s1")
	if err != nil || !resumed {
		t.Fatalf("awake = %v, %v", resumed, err)
	}
	if err := cn.Abort("s1"); err != nil {
		t.Fatal(err)
	}
	if st, _ := cn.State("s1"); st != "Aborted" {
		t.Fatalf("state = %q", st)
	}
	// Sleep on a terminal transaction errors through the wire.
	if err := cn.Sleep("s1"); err == nil {
		t.Error("sleep on aborted tx must fail")
	}
}

func TestInvokeTimeoutOption(t *testing.T) {
	// A server with a short invoke timeout turns indefinite lock waits into
	// errors (the client can retry or abort).
	db := ldbs.Open(ldbs.Options{})
	if err := db.CreateTable(ldbs.Schema{
		Table:   "T",
		Columns: []ldbs.ColumnDef{{Name: "v", Kind: sem.KindInt64}},
	}); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Insert(context.Background(), "T", "k", ldbs.Row{"v": sem.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := core.NewManager(core.NewLDBSStore(db))
	if err := m.RegisterAtomicObject("obj", core.StoreRef{Table: "T", Key: "k", Column: "v"}); err != nil {
		t.Fatal(err)
	}
	srv := startGateway(t, wire.NewManagerBackend(m), gateway.Options{InvokeTimeout: 50 * time.Millisecond})
	cn, err := wire.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	cn2, err := wire.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()

	if err := cn.Begin("holder"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("holder", "obj", sem.Assign, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn2.Begin("waiter"); err != nil {
		t.Fatal(err)
	}
	err = cn2.Invoke("waiter", "obj", sem.Assign, "")
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("blocked invoke = %v, want deadline exceeded", err)
	}
}

func TestServerSweepForgetsTerminalTransactions(t *testing.T) {
	srv, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("done"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("done", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("done"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Begin("live"); err != nil {
		t.Fatal(err)
	}

	removed := srv.Engine().Sweep(0) // everything terminal, however recent
	if len(removed) != 1 || removed[0] != "done" {
		t.Fatalf("removed = %v", removed)
	}
	// The live transaction survives; the terminal one is gone.
	if _, err := cn.State("live"); err != nil {
		t.Errorf("live transaction swept: %v", err)
	}
	if _, err := cn.State("done"); err == nil {
		t.Error("terminal transaction still known after sweep")
	}
	// Its id is reusable.
	if err := cn.Begin("done"); err != nil {
		t.Errorf("id not reusable after sweep: %v", err)
	}
}
