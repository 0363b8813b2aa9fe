package wire_test

import (
	"strings"
	"testing"

	"preserial/internal/sem"
	"preserial/internal/wire"
)

// TestReadOnlyBegin drives a read-only snapshot transaction over the wire:
// reads see the pin, writes are refused, commit releases the snapshot.
func TestReadOnlyBegin(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.BeginReadOnly("ro1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("ro1", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	if v, err := cn.Read("ro1", "flight"); err != nil || v.Int64() != 50 {
		t.Fatalf("snapshot read = %s, %v; want 50", v, err)
	}

	// A writer commits while the snapshot stays pinned.
	if err := cn.Begin("w1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("w1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("w1", "flight", sem.Int(-5)); err != nil {
		t.Fatal(err)
	}
	if err := cn.Commit("w1"); err != nil {
		t.Fatal(err)
	}

	if v, err := cn.Read("ro1", "flight"); err != nil || v.Int64() != 50 {
		t.Fatalf("pinned read after writer commit = %s, %v; want 50", v, err)
	}

	// Mutating calls are refused with the read-only error.
	if err := cn.Invoke("ro1", "flight", sem.AddSub, ""); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("write-class invoke on snapshot: err = %v, want read-only refusal", err)
	}
	if err := cn.Apply("ro1", "flight", sem.Int(1)); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("apply on snapshot: err = %v, want read-only refusal", err)
	}
	if err := cn.Sleep("ro1"); err == nil {
		t.Fatal("snapshot slept")
	}

	if err := cn.Commit("ro1"); err != nil {
		t.Fatal(err)
	}

	// A fresh snapshot sees the writer's value.
	if err := cn.BeginReadOnly("ro2"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("ro2", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	if v, err := cn.Read("ro2", "flight"); err != nil || v.Int64() != 45 {
		t.Fatalf("fresh snapshot read = %s, %v; want 45", v, err)
	}
	if err := cn.Abort("ro2"); err != nil {
		t.Fatal(err)
	}
}

// TestOneShotSnapshotRead: a bare read with the read_only flag needs no
// transaction at all.
func TestOneShotSnapshotRead(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if v, err := cn.SnapshotRead("flight", ""); err != nil || v.Int64() != 50 {
		t.Fatalf("one-shot snapshot read = %s, %v; want 50", v, err)
	}
	if _, err := cn.SnapshotRead("nope", ""); err == nil {
		t.Fatal("one-shot read of unknown object succeeded")
	}
}

// TestReadOnlySwept: closed snapshot sessions vanish from the engine's
// registry on sweep, even though the backend never knew them.
func TestReadOnlySwept(t *testing.T) {
	srv, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.BeginReadOnly("ro"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Abort("ro"); err != nil {
		t.Fatal(err)
	}
	srv.Engine().Sweep(0)
	if srv.Engine().Knows("ro") {
		t.Fatal("closed snapshot session survived sweep")
	}
}

// TestReadOnlyDuplicateID: a read-only begin cannot steal an existing
// transaction id.
func TestReadOnlyDuplicateID(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Begin("dup"); err != nil {
		t.Fatal(err)
	}
	if err := cn.BeginReadOnly("dup"); err == nil {
		t.Fatal("read-only begin reused a live transaction id")
	}
}
