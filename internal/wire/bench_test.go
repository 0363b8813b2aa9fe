package wire_test

import (
	"bytes"
	"fmt"
	"testing"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

func BenchmarkFrameRoundTrip(b *testing.B) {
	req := wire.Request{Op: wire.OpInvoke, Tx: "tx-0001", Object: "Flight/AZ0", Class: "add/sub"}
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.WriteMsg(&buf, &req); err != nil {
			b.Fatal(err)
		}
		var got wire.Request
		if err := wire.ReadMsg(&buf, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerBookingRoundTrip measures a full begin/invoke/apply/commit
// conversation over a real TCP connection.
func BenchmarkServerBookingRoundTrip(b *testing.B) {
	store := core.NewMemStore()
	ref := core.StoreRef{Table: "T", Key: "X", Column: "v"}
	store.Seed(ref, sem.Int(1_000_000))
	m := core.NewManager(store)
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		b.Fatal(err)
	}
	srv := startGateway(b, wire.NewManagerBackend(m), gateway.Options{})
	cn, err := wire.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cn.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := fmt.Sprintf("t%d", i)
		if err := cn.Begin(tx); err != nil {
			b.Fatal(err)
		}
		if err := cn.Invoke(tx, "X", sem.AddSub, ""); err != nil {
			b.Fatal(err)
		}
		if err := cn.Apply(tx, "X", sem.Int(-1)); err != nil {
			b.Fatal(err)
		}
		if err := cn.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}
