package wire_test

import (
	"testing"

	"preserial/internal/sem"
	"preserial/internal/wire"
)

// TestPrepareDecideOverWire drives 2PC phase 1 + 2 through the protocol:
// prepare stages and returns the write set, decide(commit) publishes it.
func TestPrepareDecideOverWire(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := cn.Begin("coord1"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("coord1", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("coord1", "flight", sem.Int(-2)); err != nil {
		t.Fatal(err)
	}
	writes, err := cn.Prepare("coord1")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if len(writes) != 1 || writes[0].Table != "Flight" || writes[0].Key != "AZ123" {
		t.Fatalf("staged writes = %+v", writes)
	}
	if v, _ := writes[0].Value.ToSem(); v.Int64() != 48 {
		t.Fatalf("staged value = %s", writes[0].Value.Kind)
	}
	// In doubt: a client abort must be refused.
	if err := cn.Abort("coord1"); err == nil {
		t.Fatal("abort of a prepared transaction must fail")
	}
	if err := cn.Decide("coord1", true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if st, err := cn.State("coord1"); err != nil || st != "Committed" {
		t.Fatalf("state = %q, %v", st, err)
	}

	// The abort verdict unwinds a prepared transaction.
	if err := cn.Begin("coord2"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("coord2", "flight", sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	if err := cn.Apply("coord2", "flight", sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := cn.Prepare("coord2"); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if err := cn.Decide("coord2", false); err != nil {
		t.Fatalf("decide abort: %v", err)
	}
	if st, err := cn.State("coord2"); err != nil || st != "Aborted" {
		t.Fatalf("state = %q, %v", st, err)
	}

	// A fresh transaction still sees the decided value: 50 - 2 = 48.
	if err := cn.Begin("reader"); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke("reader", "flight", sem.Read, ""); err != nil {
		t.Fatal(err)
	}
	if v, err := cn.Read("reader", "flight"); err != nil || v.Int64() != 48 {
		t.Fatalf("read = %s, %v", v, err)
	}
}

// TestShardsOpOnSingleNode: a single-manager server has no topology.
func TestShardsOpOnSingleNode(t *testing.T) {
	_, addr := newTestServer(t)
	cn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if _, _, err := cn.Shards(""); err == nil {
		t.Fatal("shards op must fail on a non-sharded backend")
	}
}
