package gateway

import (
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// The TestLifecycle* tests cover the server's Serve/Close/Drain lifecycle.
// CI runs them with -race -count=20: a teardown race must not pass on one
// lucky run.

// memBackend is a manager over an in-memory store with one seat counter.
func memBackend(t *testing.T) wire.Backend {
	t.Helper()
	store := core.NewMemStore()
	ref := core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}
	store.Seed(ref, sem.Int(1_000_000))
	m := core.NewManager(store)
	t.Cleanup(m.Close)
	if err := m.RegisterAtomicObject("flight", ref); err != nil {
		t.Fatal(err)
	}
	return wire.NewManagerBackend(m)
}

// TestLifecycleCloseAfterReady closes the server as soon as it is bound,
// over and over, while a client dials in and sends session requests. Close
// must not race Serve starting its lane workers, reaper and sweeper, and a
// connection accepted during shutdown must not reach a closed lane.
func TestLifecycleCloseAfterReady(t *testing.T) {
	b := memBackend(t)
	for i := 0; i < 300; i++ {
		srv := NewServer(b, Options{})
		served := make(chan error, 1)
		go func() { served <- srv.Serve("127.0.0.1:0") }()
		select {
		case <-srv.Ready():
		case err := <-served:
			t.Fatalf("run %d: serve: %v", i, err)
		}
		addr := srv.Addr().String()
		var client sync.WaitGroup
		client.Add(1)
		go func() {
			defer client.Done()
			mc, err := DialMuxTimeout(addr, time.Second, time.Second)
			if err != nil {
				return
			}
			defer mc.Close()
			if sc, _, err := mc.Session("s", ""); err == nil {
				_ = sc.Begin("t")
			}
		}()
		if i%2 == 1 {
			time.Sleep(time.Duration(i%7) * 100 * time.Microsecond)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("run %d: close: %v", i, err)
		}
		if err := <-served; err != nil {
			t.Fatalf("run %d: serve returned %v after close", i, err)
		}
		client.Wait()
	}
}

// TestLifecycleServeAfterClose: a closed server refuses to serve.
func TestLifecycleServeAfterClose(t *testing.T) {
	srv := NewServer(memBackend(t), Options{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("serve after close succeeded")
	}
}

// TestLifecycleDrainSleepsPlainAndSessionTransactions: a drain puts the
// live transactions of a plain client and of a session to sleep, and
// Serve returns nil.
func TestLifecycleDrainSleepsPlainAndSessionTransactions(t *testing.T) {
	b := memBackend(t)
	srv := NewServer(b, Options{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve("127.0.0.1:0") }()
	<-srv.Ready()
	addr := srv.Addr().String()

	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Begin("plain"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("plain", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	mc, err := DialMux(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	sc, _, err := mc.Session("mob", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Begin("session"); err != nil {
		t.Fatal(err)
	}
	if err := sc.Invoke("session", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}

	rep := srv.Drain(2 * time.Second)
	if rep.Slept != 2 || !rep.CommitsFlushed {
		t.Fatalf("drain = %+v, want 2 slept and commits flushed", rep)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v after drain", err)
	}
	for _, tx := range []string{"plain", "session"} {
		if st, err := b.TxState(tx); err != nil || st != core.StateSleeping {
			t.Fatalf("%s: state %v, %v; want Sleeping", tx, st, err)
		}
	}
}
