package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// startServer spins an in-process middleware over a MemStore.
func startServer(t *testing.T) *wire.Conn {
	t.Helper()
	store := core.NewMemStore()
	ref := core.StoreRef{Table: "Flight", Key: "AZ0", Column: "FreeTickets"}
	store.Seed(ref, sem.Int(100))
	m := core.NewManager(store)
	if err := m.RegisterAtomicObject("Flight/AZ0", ref); err != nil {
		t.Fatal(err)
	}
	srv := gateway.NewServer(wire.NewManagerBackend(m), gateway.Options{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve("127.0.0.1:0")
	}()
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never bound")
	}
	cn, err := wire.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cn.Close()
		srv.Close()
		wg.Wait()
	})
	return cn
}

// do runs one CLI command line.
func do(t *testing.T, cn *wire.Conn, line string) string {
	t.Helper()
	out, err := run(cn, strings.Fields(line))
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return out
}

func TestCLIBookingFlow(t *testing.T) {
	cn := startServer(t)
	if out := do(t, cn, "ping"); out != "" {
		t.Errorf("ping = %q", out)
	}
	if out := do(t, cn, "objects"); out != "Flight/AZ0" {
		t.Errorf("objects = %q", out)
	}
	do(t, cn, "begin trip")
	do(t, cn, "invoke trip Flight/AZ0 add/sub")
	if out := do(t, cn, "read trip Flight/AZ0"); out != "100" {
		t.Errorf("read = %q", out)
	}
	do(t, cn, "apply trip Flight/AZ0 -1")
	do(t, cn, "commit trip")
	if out := do(t, cn, "state trip"); out != "Committed" {
		t.Errorf("state = %q", out)
	}
	stats := do(t, cn, "stats")
	if !strings.Contains(stats, "committed=1") {
		t.Errorf("stats = %q", stats)
	}
}

func TestCLISleepAwakeAndIntrospection(t *testing.T) {
	cn := startServer(t)
	do(t, cn, "begin mobile")
	do(t, cn, "invoke mobile Flight/AZ0 add/sub")
	do(t, cn, "apply mobile Flight/AZ0 -2")
	do(t, cn, "sleep mobile")
	if out := do(t, cn, "state mobile"); out != "Sleeping" {
		t.Errorf("state = %q", out)
	}
	info := do(t, cn, "info Flight/AZ0")
	if !strings.Contains(info, "sleeping: mobile") {
		t.Errorf("info = %q", info)
	}
	if out := do(t, cn, "awake mobile"); out != "resumed" {
		t.Errorf("awake = %q", out)
	}
	do(t, cn, "commit mobile")
	txs := do(t, cn, "txs")
	if !strings.Contains(txs, "mobile") || !strings.Contains(txs, "Committed") {
		t.Errorf("txs = %q", txs)
	}
}

func TestCLIAbortAndAttach(t *testing.T) {
	cn := startServer(t)
	do(t, cn, "begin t")
	do(t, cn, "invoke t Flight/AZ0 assign")
	do(t, cn, "apply t Flight/AZ0 500")
	do(t, cn, "abort t")
	if out := do(t, cn, "state t"); out != "Aborted" {
		t.Errorf("state = %q", out)
	}
	do(t, cn, "begin t2")
	do(t, cn, "attach t2")
}

func TestCLIErrors(t *testing.T) {
	cn := startServer(t)
	bad := []string{
		"zap",
		"begin",
		"invoke t",
		"invoke t Flight/AZ0 zapclass",
		"read t",
		"apply t Flight/AZ0",
		"commit",
		"state",
		"info",
		"read ghost Flight/AZ0",
	}
	for _, line := range bad {
		if _, err := run(cn, strings.Fields(line)); err == nil {
			t.Errorf("command %q accepted", line)
		}
	}
}

func TestParseValue(t *testing.T) {
	if v := parseValue("42"); v.Kind() != sem.KindInt64 || v.Int64() != 42 {
		t.Errorf("int = %s", v)
	}
	if v := parseValue("-1"); v.Int64() != -1 {
		t.Errorf("neg = %s", v)
	}
	if v := parseValue("2.5"); v.Kind() != sem.KindFloat64 || v.Float64() != 2.5 {
		t.Errorf("float = %s", v)
	}
	if v := parseValue(`"hi"`); v.Kind() != sem.KindString || v.Text() != "hi" {
		t.Errorf("string = %s", v)
	}
	if v := parseValue("plain"); v.Text() != "plain" {
		t.Errorf("bare string = %s", v)
	}
}
