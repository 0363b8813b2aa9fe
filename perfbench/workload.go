package main

import (
	"fmt"
	"math/rand"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
)

// taskKind separates the two kinds of task a workload issues.
type taskKind uint8

const (
	kindTxn  taskKind = iota // a booking transaction: begin, invoke+apply per object, commit
	kindRead                 // a one-shot snapshot read
)

// opSpec is one operation of a booking: an operation class on one object
// with its operand (the delta for add/sub, the new value for assign).
type opSpec struct {
	obj     int
	class   sem.Class
	operand int64
}

// task is one unit of generated load.
type task struct {
	kind       taskKind
	obj        int // kindRead: the object read
	ops        []opSpec
	disconnect bool // detach, pause, re-attach and awake before commit
}

// workload is one traffic mix and the stack it runs on.
type workload struct {
	name string
	why  string
	// params are recorded with every result.
	params map[string]any
	spec   func() *stackSpec
	// rate is the open phase's offered load in tasks per second: a quarter
	// to a half of the closed phase's throughput on the reference machine,
	// far enough below saturation that the open-phase latencies do not
	// follow every drift in the machine's speed.
	rate float64
	// closed is the closed phase's session count.
	closed int
	// pause is how long a disconnecting transaction stays away.
	pause time.Duration
	// assigns: bookings include assigns, so the oracle replays the history
	// instead of checking conservation.
	assigns bool
	gen     func(r *rand.Rand) task
}

const initialStock = 1_000_000

// Travel agency constants (§II, §VI.B): 64 hot objects, α = share of
// add/sub operations, β = share of transactions that disconnect.
const (
	travelPerKind = 16
	travelAlpha   = 0.7
	travelBeta    = 0.1
	travelPause   = 20 * time.Millisecond
)

var travelKinds = []struct{ table, column, prefix string }{
	{"Flight", "FreeTickets", "F"},
	{"Hotel", "FreeRooms", "H"},
	{"Car", "FreeCars", "C"},
	{"Museum", "FreeTickets", "M"},
}

const (
	readmixObjects = 4096
	readmixReads   = 0.9
	scaleoutRows   = 10_000
	scaleoutShards = 2
)

var workloads = []*workload{
	{
		name: "travel",
		why:  "The paper's travel agency (§II, §VI.B): Table I conflicts, deadlocks and sleeping clients load the GTM core and the commit pipeline under a 2 ms device sync.",
		params: map[string]any{"objects": 4 * travelPerKind, "alpha": travelAlpha, "beta": travelBeta,
			"pause_ms": travelPause.Milliseconds(), "items_per_txn": "1-3",
			"store": "mem", "sync_delay_ms": 2},
		spec:    travelSpec,
		rate:    400,
		closed:  16,
		pause:   travelPause,
		assigns: true,
		gen:     travelTask,
	},
	{
		name: "readmix",
		why:  "90% one-shot snapshot reads over 4096 objects, no sync delay: CPU-bound in the gateway, wire engine and monitor-free MVCC read path; not in BENCHMARK.json, too unsteady to gate.",
		params: map[string]any{"objects": readmixObjects, "read_share": readmixReads, "store": "mem",
			"sync_delay_ms": 0},
		spec:   readmixSpec,
		rate:   6000,
		closed: 8,
		gen:    readmixTask,
	},
	{
		name: "scaleout",
		why:  "Two disk-driver shards, page cache a tenth of the data, 2 ms sync, two-object bookings: the only workload with cross-shard 2PC and cache misses.",
		params: map[string]any{"rows": scaleoutRows, "shards": scaleoutShards, "objects_per_txn": 2, "store": "disk", "cache": "working set / 10", "checkpoint_ms": 1000,
			"sync_delay_ms": 2},
		spec:   scaleoutSpec,
		rate:   300,
		closed: 16,
		gen:    scaleoutTask,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// intSchema is one table with a non-negative int64 column.
func intSchema(table, column string) ldbs.Schema {
	return ldbs.Schema{
		Table:   table,
		Columns: []ldbs.ColumnDef{{Name: column, Kind: sem.KindInt64}},
		Checks:  []ldbs.Check{{Column: column, Op: ldbs.CmpGE, Bound: sem.Int(0)}},
	}
}

func travelSpec() *stackSpec {
	sp := &stackSpec{syncDelay: 2 * time.Millisecond, sessions: 32, conns: 2}
	for _, k := range travelKinds {
		sp.schemas = append(sp.schemas, intSchema(k.table, k.column))
		for i := 0; i < travelPerKind; i++ {
			key := fmt.Sprintf("%s%d", k.prefix, i)
			sp.objects = append(sp.objects, objSpec{id: k.table + "/" + key,
				ref: core.StoreRef{Table: k.table, Key: key, Column: k.column}, initial: initialStock})
		}
	}
	return sp
}

// itemObjects is n uniform objects in one table.
func itemObjects(n int) []objSpec {
	out := make([]objSpec, n)
	for i := range out {
		key := fmt.Sprintf("k%06d", i)
		out[i] = objSpec{id: "Item/" + key, ref: core.StoreRef{Table: "Item", Key: key, Column: "Stock"},
			initial: initialStock}
	}
	return out
}

func readmixSpec() *stackSpec {
	return &stackSpec{schemas: []ldbs.Schema{intSchema("Item", "Stock")}, objects: itemObjects(readmixObjects),
		sessions: 32, conns: 2}
}

func scaleoutSpec() *stackSpec {
	return &stackSpec{schemas: []ldbs.Schema{intSchema("Item", "Stock")}, objects: itemObjects(scaleoutRows),
		shards: scaleoutShards, syncDelay: 2 * time.Millisecond, ckptEvery: time.Second, sessions: 32, conns: 2}
}

// distinct draws k distinct object indices below n.
func distinct(r *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		x := r.Intn(n)
		dup := false
		for _, y := range out {
			dup = dup || x == y
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

func travelTask(r *rand.Rand) task {
	n := 4 * travelPerKind
	t := task{kind: kindTxn, disconnect: r.Float64() < travelBeta}
	for _, o := range distinct(r, n, 1+r.Intn(3)) {
		if r.Float64() < travelAlpha {
			t.ops = append(t.ops, opSpec{obj: o, class: sem.AddSub, operand: -1})
		} else {
			t.ops = append(t.ops, opSpec{obj: o, class: sem.Assign, operand: initialStock/2 + r.Int63n(initialStock/2)})
		}
	}
	return t
}

func readmixTask(r *rand.Rand) task {
	if r.Float64() < readmixReads {
		return task{kind: kindRead, obj: r.Intn(readmixObjects)}
	}
	return task{kind: kindTxn, ops: []opSpec{{obj: r.Intn(readmixObjects), class: sem.AddSub, operand: -1}}}
}

func scaleoutTask(r *rand.Rand) task {
	t := task{kind: kindTxn}
	for _, o := range distinct(r, scaleoutRows, 2) {
		t.ops = append(t.ops, opSpec{obj: o, class: sem.AddSub, operand: -1})
	}
	return t
}

// arrival is one scheduled open-phase task.
type arrival struct {
	at time.Duration // offset from the phase start
	t  task
}

// schedule generates the open phase's Poisson arrivals at rate per second
// over d, before any timing starts.
func schedule(r *rand.Rand, w *workload, d time.Duration) []arrival {
	var out []arrival
	var at float64
	for {
		at += r.ExpFloat64() / w.rate
		if at >= d.Seconds() {
			return out
		}
		out = append(out, arrival{at: time.Duration(at * float64(time.Second)), t: w.gen(r)})
	}
}
