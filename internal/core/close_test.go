package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"preserial/internal/sem"
)

// Each blocking Client call must end with ErrManagerClosed when its
// Manager closes under it — nothing else would ever wake it, and a caller
// on context.Background() would hang for good (a killed shard's in-flight
// 2PC prepare is the case that matters in practice).

// closeFixture is a manager over one atomic object X (seeded to 100 in
// store) with transaction A already holding an update invocation on it.
func closeFixture(t *testing.T, store interface {
	Store
	Seed(StoreRef, sem.Value)
}, aClass sem.Class, opt ...Option) *Manager {
	t.Helper()
	ref := StoreRef{Table: "T", Key: "X", Column: "v"}
	store.Seed(ref, sem.Int(100))
	m := NewManager(store, opt...)
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin("A"); err != nil {
		t.Fatal(err)
	}
	if granted, err := m.Invoke("A", "X", sem.Op{Class: aClass}); err != nil || !granted {
		t.Fatalf("A invoke: granted=%v err=%v", granted, err)
	}
	if err := m.Apply("A", "X", sem.Int(1)); err != nil {
		t.Fatal(err)
	}
	return m
}

// grantedClient begins B and has it invoke add/sub on X, granted at once.
func grantedClient(t *testing.T, m *Manager) *Client {
	t.Helper()
	c, err := m.BeginClient("B")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Invoke(context.Background(), "X", sem.Op{Class: sem.AddSub}); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply("X", sem.Int(2)); err != nil {
		t.Fatal(err)
	}
	return c
}

// assertEndsOnClose checks that call is still blocked, runs closeFn, and
// requires the call to return ErrManagerClosed promptly.
func assertEndsOnClose(t *testing.T, call func() error, closeFn func()) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- call() }()
	select {
	case err := <-errc:
		t.Fatalf("call returned %v before Close; the fixture did not block it", err)
	case <-time.After(50 * time.Millisecond):
	}
	closeFn()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrManagerClosed) {
			t.Fatalf("after Close: err = %v, want ErrManagerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call still blocked 5s after Close")
	}
}

func TestCloseEndsQueuedInvoke(t *testing.T) {
	m := closeFixture(t, NewMemStore(), sem.Assign) // assign conflicts with add/sub
	c, err := m.BeginClient("B")
	if err != nil {
		t.Fatal(err)
	}
	assertEndsOnClose(t, func() error {
		return c.Invoke(context.Background(), "X", sem.Op{Class: sem.AddSub})
	}, m.Close)
}

func TestCloseEndsCommitQueuedForSlot(t *testing.T) {
	m := closeFixture(t, NewMemStore(), sem.AddSub)
	c := grantedClient(t, m)
	// A in doubt holds X's committer slot; B's commit queues behind it.
	if err := m.PrepareCommit("A"); err != nil {
		t.Fatal(err)
	}
	assertEndsOnClose(t, func() error { return c.Commit(context.Background()) }, m.Close)
}

func TestCloseEndsPrepareQueuedForSlot(t *testing.T) {
	m := closeFixture(t, NewMemStore(), sem.AddSub)
	c := grantedClient(t, m)
	if err := m.PrepareCommit("A"); err != nil {
		t.Fatal(err)
	}
	assertEndsOnClose(t, func() error {
		_, err := c.Prepare(context.Background())
		return err
	}, m.Close)
}

func TestCloseEndsDecideAwaitingSST(t *testing.T) {
	store := newGatedStore()
	defer store.open() // never leave the worker parked, even on failure
	m := closeFixture(t, store, sem.AddSub, WithSSTExecutor(1, 4))
	if err := m.Abort("A"); err != nil {
		t.Fatal(err)
	}
	c := grantedClient(t, m)
	if _, err := c.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The decided SST reaches the pool's worker and stalls at the gate,
	// so Decide waits for an outcome the closing manager never reports.
	call := func() error { return c.Decide(context.Background(), true) }
	closed := make(chan struct{})
	assertEndsOnClose(t, call, func() {
		select {
		case <-store.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("decided SST never started")
		}
		// Close drains the executor, which needs the gate open; the
		// waiter must be released before that.
		go func() { m.Close(); close(closed) }()
	})
	store.open()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the SST finished")
	}
}
