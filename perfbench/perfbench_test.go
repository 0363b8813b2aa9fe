package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/ldbs/store"
	"preserial/internal/ldbs/store/mem"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// implements reports which of the named optional interfaces v implements.
func implements(v any, probes map[string]func(any) bool) map[string]bool {
	out := make(map[string]bool, len(probes))
	for name, probe := range probes {
		out[name] = probe(v)
	}
	return out
}

func sameSet(t *testing.T, what string, inner, wrapped map[string]bool) {
	t.Helper()
	for name, want := range inner {
		if wrapped[name] != want {
			t.Errorf("%s: inner implements %s = %v, wrapper = %v", what, name, want, wrapped[name])
		}
	}
}

// Every combination of optional interfaces, built from nil-embedded
// interfaces: only the method sets matter, nothing is called.
func TestBackendWrapperForwardsOptionalInterfaces(t *testing.T) {
	probes := map[string]func(any) bool{
		"SnapshotBackend": func(v any) bool { _, ok := v.(wire.SnapshotBackend); return ok },
		"ReplayBackend":   func(v any) bool { _, ok := v.(wire.ReplayBackend); return ok },
		"ShardBackend":    func(v any) bool { _, ok := v.(wire.ShardBackend); return ok },
	}
	type B = wire.Backend
	type S = wire.SnapshotBackend
	type R = wire.ReplayBackend
	type H = wire.ShardBackend
	cases := []wire.Backend{
		struct{ B }{},
		struct {
			B
			S
		}{},
		struct {
			B
			R
		}{},
		struct {
			B
			H
		}{},
		struct {
			B
			S
			R
		}{},
		struct {
			B
			S
			H
		}{},
		struct {
			B
			R
			H
		}{},
		struct {
			B
			S
			R
			H
		}{},
		wire.NewManagerBackend(core.NewManager(core.NewMemStore())),
	}
	for _, b := range cases {
		sameSet(t, "backend", implements(b, probes), implements(wrapBackend(b, newTracer()), probes))
	}
}

func TestSessionWrapperForwardsOptionalInterfaces(t *testing.T) {
	probes := map[string]func(any) bool{
		"TwoPhaseSession": func(v any) bool { _, ok := v.(wire.TwoPhaseSession); return ok },
		"ReadOnlySession": func(v any) bool { _, ok := v.(wire.ReadOnlySession); return ok },
		"Done":            func(v any) bool { _, ok := v.(doner); return ok },
	}
	type S = wire.Session
	type P = wire.TwoPhaseSession
	type R = wire.ReadOnlySession
	type D = doner
	cases := []wire.Session{
		struct{ S }{},
		struct {
			S
			P
		}{},
		struct {
			S
			R
		}{},
		struct {
			S
			D
		}{},
		struct {
			S
			P
			R
		}{},
		struct {
			S
			P
			D
		}{},
		struct {
			S
			R
			D
		}{},
		struct {
			S
			P
			R
			D
		}{},
	}
	// The real sessions: a GTM transaction and a snapshot.
	b := wire.NewManagerBackend(core.NewManager(core.NewMemStore()))
	tx, err := b.Begin("t1")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := b.(wire.SnapshotBackend).BeginSnapshot("r1")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tx, snap)
	for _, s := range cases {
		sameSet(t, "session", implements(s, probes), implements(wrapSession(s, "t", newTracer()), probes))
	}
}

func TestStoreWrapperForwardsOptionalInterfaces(t *testing.T) {
	probes := map[string]func(any) bool{
		"BatchStore":   func(v any) bool { _, ok := v.(core.BatchStore); return ok },
		"SSTValidator": func(v any) bool { _, ok := v.(core.SSTValidator); return ok },
	}
	type S = core.Store
	type B = core.BatchStore
	type V = core.SSTValidator
	cases := []core.Store{
		struct{ S }{},
		struct {
			S
			B
		}{},
		struct {
			S
			V
		}{},
		struct {
			S
			B
			V
		}{},
		core.NewLDBSStore(ldbs.Open(ldbs.Options{})),
		core.NewMemStore(),
	}
	for _, s := range cases {
		w, _ := wrapStore(s, newTracer())
		sameSet(t, "store", implements(s, probes), implements(w, probes))
	}
}

func TestDriverWrapperWrapsTables(t *testing.T) {
	tr := newTracer()
	d := &tracedDriver{Driver: mem.New(store.Config{}), t: tr}
	tb, err := d.CreateTable("T")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.(*tracedTable); !ok {
		t.Fatalf("CreateTable returned %T, want *tracedTable", tb)
	}
	if _, _, err := tb.Get("k"); err != nil {
		t.Fatal(err)
	}
	if again, ok := d.Table("T"); !ok {
		t.Fatal("table T missing")
	} else if _, ok := again.(*tracedTable); !ok {
		t.Fatalf("Table returned %T, want *tracedTable", again)
	}
	if n := byName(tr.snapshot())["store.get"].n(); n != 1 {
		t.Fatalf("store.get spans = %d, want 1", n)
	}
}

// A window of one-shot snapshot reads through the traced stack must not
// enter the GTM monitor: the wrappers must leave the read path monitor-free.
func TestTracedSnapshotReadsStayMonitorFree(t *testing.T) {
	w, err := findWorkload("readmix")
	if err != nil {
		t.Fatal(err)
	}
	spec := w.spec()
	spec.sessions = 4
	tr := newTracer()
	st, err := openStack(spec, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	rn := &runner{w: w, objs: spec.objects}
	for _, s := range st.sessions {
		s.rec = newRecorder()
	}
	// One booking first, so reads meet committed version chains.
	rn.run(st.sessions[0], task{kind: kindTxn, ops: []opSpec{{obj: 0, class: sem.AddSub, operand: -1}}}, phaseWarm, time.Now(), time.Now())
	before := st.monitorEntries()
	const reads = 200
	for i := 0; i < reads; i++ {
		rn.run(st.sessions[i%len(st.sessions)], task{kind: kindRead, obj: i % len(spec.objects)}, phaseWarm, time.Now(), time.Now())
	}
	if after := st.monitorEntries(); after != before {
		t.Fatalf("monitor entries %d → %d across %d snapshot reads", before, after, reads)
	}
	rec := newRecorder()
	for _, s := range st.sessions {
		rec.merge(s.rec)
	}
	if rec.errs != 0 || len(rec.reads) != reads {
		t.Fatalf("errors %d (%v), reads %d", rec.errs, rec.firstErr, len(rec.reads))
	}
	if n := byName(tr.snapshot())["core.snapshot_read"].n(); n != reads {
		t.Fatalf("core.snapshot_read spans = %d, want %d", n, reads)
	}
}

// BENCHMARK.json must name exactly the metrics the program reports, and
// only workloads it runs (readmix runs but is not gated).
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json has %d workloads", len(bench.Workloads))
	}
	for _, bw := range bench.Workloads {
		w, err := findWorkload(bw.Name)
		if err != nil {
			t.Error(err)
		} else if bw.Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", bw.Name, bw.Why, w.why)
		}
	}
}

// The self-test: every workload, briefly, untraced and traced, with every
// check.
func TestSelftest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if code := runSelftest(t.TempDir()); code != 0 {
		t.Fatalf("selftest exit %d", code)
	}
}
