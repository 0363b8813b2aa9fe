package wire

import (
	"testing"

	"preserial/internal/core"
	"preserial/internal/sem"
)

// TestDedupCollapseOnTerminal: a committed transaction's replay window
// collapses to the single terminal entry (the bug was holding every entry
// until the sweep, long after the transaction could produce new requests),
// while the terminal response itself stays replayable. The test reads the
// engine's windows, so it drives Engine.Serve directly, as a front end does.
func TestDedupCollapseOnTerminal(t *testing.T) {
	store := core.NewMemStore()
	ref := core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}
	store.Seed(ref, sem.Int(50))
	m := core.NewManager(store)
	defer m.Close()
	if err := m.RegisterAtomicObject("flight", ref); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(NewManagerBackend(m), EngineOptions{})
	defer e.Stop()
	owner := NewOwner("conn")

	roundTrip := func(req Request) Response {
		t.Helper()
		resp := e.Serve(&req, owner)
		if !resp.OK {
			t.Fatalf("%s: %s", req.Op, resp.Err)
		}
		return *resp
	}
	roundTrip(Request{Op: OpBegin, Tx: "mob", Seq: 1})
	roundTrip(Request{Op: OpInvoke, Tx: "mob", Object: "flight", Class: "add/sub", Seq: 2})
	roundTrip(Request{Op: OpApply, Tx: "mob", Object: "flight", Operand: &Value{Kind: "int", Int: -1}, Seq: 3})
	roundTrip(Request{Op: OpCommit, Tx: "mob", Seq: 4})

	e.mu.Lock()
	w := e.dedups["mob"]
	e.mu.Unlock()
	if w == nil {
		t.Fatal("no dedup window for mob")
	}
	w.mu.Lock()
	n := len(w.entries)
	w.mu.Unlock()
	if n != 1 {
		t.Fatalf("window holds %d entries after commit, want 1 (terminal only)", n)
	}
	// The surviving entry still answers a commit retry exactly-once.
	resp := roundTrip(Request{Op: OpCommit, Tx: "mob", Seq: 4})
	if !resp.Replayed {
		t.Fatal("commit retry must be served from the replay window")
	}
}
