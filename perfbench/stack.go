package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/ldbs"
	"preserial/internal/ldbs/store"
	_ "preserial/internal/ldbs/store/disk" // the scaleout workload's storage driver
	"preserial/internal/ldbs/store/mem"
	"preserial/internal/obs"
	"preserial/internal/sem"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// Every program option the benchmark sets is in this file. The stack
// mirrors gtmd's default single-node configuration (history, observability,
// a 4-worker SST executor with a 64-deep queue, WAL group commit, the
// supervisor with gtmd's default timeouts, gateway defaults with admission
// off) plus the gateway's invoke timeout, which docs/GATEWAY.md tells
// gateway deployments to set because a blocking invoke holds a lane
// worker. Per workload, stackSpec picks the sync delay and the storage
// driver.
const (
	traceDepth      = 4096
	sstWorkers      = 4
	sstQueue        = 64
	idleTimeout     = 2 * time.Minute
	waitTimeout     = 5 * time.Minute
	sleepAbortAfter = time.Hour
	superviseEvery  = 5 * time.Second
	invokeTimeout   = time.Second
	callTimeout     = 30 * time.Second
)

func managerOptions(observ *core.Observability) []core.Option {
	return []core.Option{core.WithHistory(), core.WithObservability(observ),
		core.WithSSTExecutor(sstWorkers, sstQueue)}
}

func gatewayOptions(reg *obs.Registry) gateway.Options {
	return gateway.Options{Obs: reg, InvokeTimeout: invokeTimeout}
}

func supervisorConfig() core.SupervisorConfig {
	return core.SupervisorConfig{IdleTimeout: idleTimeout, WaitTimeout: waitTimeout,
		SleepAbortAfter: sleepAbortAfter}
}

// storeObs is the storage drivers' registry, one for the process as in
// gtmd. store.BindObs keeps every registry it is given as a key of a
// package-level map, also after the driver closes; given each stack's own
// registry, it would keep every closed stack reachable through that
// registry's gauges (about 21 MB per scaleout set-up round), and the
// retained stacks would count in heap_peak_mb.
var storeObs = obs.NewRegistry()

// objSpec is one GTM object and the row backing it.
type objSpec struct {
	id      string
	ref     core.StoreRef
	initial int64
}

// stackSpec is what a workload asks of the stack.
type stackSpec struct {
	schemas    []ldbs.Schema
	objects    []objSpec
	shards     int           // 0: single node on the mem driver; >1: shard.Cluster over disk-driver nodes
	syncDelay  time.Duration // ldbs's emulated device latency per WAL sync
	cacheBytes int64         // disk page-cache budget per shard
	ckptEvery  time.Duration // per-shard checkpoint interval
	sessions   int           // logical sessions attached at setup
	conns      int           // TCP connections they share
}

// node is one GTM over one ldbs database: the single node, or one shard.
type node struct {
	db      *ldbs.DB
	driver  store.Driver
	m       *core.Manager
	walFile *os.File
	wal     *walDevice
	sst     *tracedStore // traced runs only
}

// stack is one running gtmd-shaped stack plus its attached client sessions.
type stack struct {
	spec *stackSpec
	tr   *tracer
	reg  *obs.Registry

	nodes    []*node
	ring     *shard.Ring // scaleout only
	cluster  *shard.Cluster
	gw       *gateway.Server
	muxes    []*gateway.MuxConn
	sessions []*session

	ctx      context.Context // cancelled when the stack closes
	stopBg   context.CancelFunc
	bg       sync.WaitGroup
	serveErr chan error

	ckptMu  sync.Mutex
	ckptErr error // the first failed checkpoint; it fails the run
}

// openStack builds the stack in dir (emptied first): stores, seed rows,
// registered objects, the gateway, the connections and the attached
// sessions. With a tracer, every layer boundary is wrapped.
func openStack(spec *stackSpec, dir string, tr *tracer) (st *stack, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st = &stack{spec: spec, tr: tr, reg: obs.NewRegistry(), ctx: ctx, stopBg: cancel,
		serveErr: make(chan error, 1)}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	observ := core.NewObservability(st.reg, traceDepth)

	var backend wire.Backend
	if spec.shards == 0 {
		n, err := st.openNode(dir, mem.New(store.Config{Obs: storeObs}), spec.schemas, spec.objects, nil, observ)
		if err != nil {
			return st, err
		}
		backend = wire.NewManagerBackend(n.m)
	} else {
		if backend, err = st.openCluster(dir, observ); err != nil {
			return st, err
		}
	}
	for _, n := range st.nodes {
		st.bg.Add(1)
		go func(m *core.Manager) {
			defer st.bg.Done()
			core.RunSupervisor(ctx, m, supervisorConfig(), superviseEvery)
		}(n.m)
	}
	if tr != nil {
		backend = wrapBackend(backend, tr)
	}

	st.gw = gateway.NewServer(backend, gatewayOptions(st.reg))
	go func() { st.serveErr <- st.gw.Serve("127.0.0.1:0") }()
	select {
	case <-st.gw.Ready():
	case err := <-st.serveErr:
		st.gw = nil
		return st, fmt.Errorf("gateway: %w", err)
	}
	addr := st.gw.Addr().String()
	for i := 0; i < spec.conns; i++ {
		mc, err := gateway.DialMuxTimeout(addr, 5*time.Second, callTimeout)
		if err != nil {
			return st, fmt.Errorf("dial: %w", err)
		}
		st.muxes = append(st.muxes, mc)
		// A round trip proves Serve reached its accept loop, past starting
		// the lane workers: Ready closes before that, and a Close in
		// between races with the workers' start.
		if _, err := mc.Call(&wire.Request{Op: wire.OpPing}); err != nil {
			return st, fmt.Errorf("ping: %w", err)
		}
	}
	for i := 0; i < spec.sessions; i++ {
		s := &session{id: fmt.Sprintf("s%02d", i), mux: st.muxes[i%len(st.muxes)], tr: tr}
		if err := s.attach(); err != nil {
			return st, fmt.Errorf("attach %s: %w", s.id, err)
		}
		st.sessions = append(st.sessions, s)
	}
	return st, nil
}

// openNode builds one GTM over one ldbs database in dir: the given storage
// driver, the WAL on the benchmark's WAL device, the rows seeded and the
// objects registered. upsert lists tables whose SST writes create rows.
func (st *stack) openNode(dir string, driver store.Driver, schemas []ldbs.Schema, objs []objSpec,
	upsert map[string]bool, observ *core.Observability) (*node, error) {
	if st.tr != nil {
		driver = &tracedDriver{Driver: driver, t: st.tr}
	}
	n := &node{driver: driver}
	st.nodes = append(st.nodes, n) // closed with the stack from here on
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "WAL"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	n.walFile = f
	n.wal = &walDevice{f: f, t: st.tr}
	n.db = ldbs.Open(ldbs.Options{WAL: n.wal, Obs: st.reg, SyncDelay: st.spec.syncDelay, Store: driver})
	for _, s := range schemas {
		if err := n.db.CreateTable(s); err != nil {
			return nil, err
		}
	}
	if err := seedRows(n.db, objs); err != nil {
		return nil, err
	}
	ls := core.NewLDBSStore(n.db)
	ls.UpsertTables = upsert
	var cs core.Store = ls
	if st.tr != nil {
		cs, n.sst = wrapStore(cs, st.tr)
	}
	n.m = core.NewManager(cs, managerOptions(observ)...)
	for _, o := range objs {
		if err := n.m.RegisterAtomicObject(core.ObjectID(o.id), o.ref); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// openCluster builds shard.Cluster over in-process shards, each a node on
// the disk driver in its own directory, checkpointed on a ticker.
//
// The shards are assembled here rather than by shard.OpenLocal: a
// LocalShard opens its WAL through ldbs.Persistence, which forces a real
// file on every commit, and the flush policy puts every WAL on the
// benchmark's WAL device. participant is LocalShard's thin Shard adapter
// over the same wire.NewManagerBackend.
//
// So the checkpoints differ from gtmd's, which go through
// Persistence.Checkpoint: that one holds ldbs's checkpoint lock, so no
// commit logs or applies while the driver flushes, and then truncates the
// WAL. Here the driver's Checkpoint runs alone: commits wait for it only
// where they apply to the driver, they keep logging meanwhile, and the WAL
// device is never truncated.
func (st *stack) openCluster(dir string, observ *core.Observability) (wire.Backend, error) {
	st.ring = shard.NewRing(st.spec.shards)
	owned := make([][]objSpec, st.spec.shards)
	for _, o := range st.spec.objects {
		i := st.ring.Route(o.id)
		owned[i] = append(owned[i], o)
	}
	members := make([]shard.Shard, st.spec.shards)
	for i := range members {
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		drv, err := store.Open("disk", store.Config{Dir: sdir, CacheBytes: st.spec.cacheBytes, Obs: storeObs})
		if err != nil {
			return nil, err
		}
		n, err := st.openNode(sdir, drv, shard.HiddenSchemas(st.spec.schemas), owned[i],
			map[string]bool{shard.MarkerTable: true}, observ)
		if err != nil {
			return nil, err
		}
		// Start from a checkpointed store, as a restarted gtmd would.
		if err := n.driver.Checkpoint(); err != nil {
			return nil, err
		}
		members[i] = &participant{idx: i, m: n.m, backend: wire.NewManagerBackend(n.m)}
		if st.tr != nil {
			members[i] = &tracedShard{Shard: members[i], t: st.tr}
		}
	}
	cl, err := shard.NewCluster(shard.Config{Shards: members, Obs: st.reg})
	if err != nil {
		return nil, err
	}
	st.cluster = cl
	st.bg.Add(1)
	go func() {
		defer st.bg.Done()
		st.checkpointLoop()
	}()
	return cl, nil
}

// checkpointLoop checkpoints every shard's store at the spec's interval,
// as gtmd's -checkpoint-every ticker does, until the stack closes or a
// checkpoint fails.
func (st *stack) checkpointLoop() {
	t := time.NewTicker(st.spec.ckptEvery)
	defer t.Stop()
	for {
		select {
		case <-st.ctx.Done():
			return
		case <-t.C:
			for i, n := range st.nodes {
				if err := n.driver.Checkpoint(); err != nil {
					st.ckptMu.Lock()
					st.ckptErr = fmt.Errorf("checkpoint shard %d: %w", i, err)
					st.ckptMu.Unlock()
					return
				}
			}
		}
	}
}

// seedRows inserts every object's row at its initial value, seedBatch rows
// per transaction (an ldbs transaction's insert checks its own write set,
// so one huge seeding transaction is quadratic).
func seedRows(db *ldbs.DB, objs []objSpec) error {
	ctx := context.Background()
	for len(objs) > 0 {
		n := min(len(objs), seedBatch)
		tx := db.Begin()
		for _, o := range objs[:n] {
			if err := tx.Insert(ctx, o.ref.Table, o.ref.Key, ldbs.Row{o.ref.Column: sem.Int(o.initial)}); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(ctx); err != nil {
			return err
		}
		objs = objs[n:]
	}
	return nil
}

const seedBatch = 512

// storedValue reads an object's committed value from the database that
// holds its row.
func (st *stack) storedValue(o objSpec) (int64, error) {
	db := st.nodes[0].db
	if st.ring != nil {
		db = st.nodes[st.ring.Route(o.id)].db
	}
	v, err := db.ReadCommitted(o.ref.Table, o.ref.Key, o.ref.Column)
	if err != nil {
		return 0, err
	}
	return v.Int64(), nil
}

// managerStats sums the GTM counters over every manager.
func (st *stack) managerStats() core.Stats {
	var out core.Stats
	out.AbortsBy = make(map[core.AbortReason]uint64)
	for _, n := range st.nodes {
		s := n.m.Stats()
		out.Begun += s.Begun
		out.Committed += s.Committed
		out.Aborted += s.Aborted
		out.Grants += s.Grants
		out.Waits += s.Waits
		out.Sleeps += s.Sleeps
		out.Awakes += s.Awakes
		out.AwakeAborts += s.AwakeAborts
		out.SSTs += s.SSTs
		out.SSTFailures += s.SSTFailures
		out.Reconciled += s.Reconciled
		for k, v := range s.AbortsBy {
			out.AbortsBy[k] += v
		}
	}
	return out
}

// monitorEntries sums MonitorEntries over every manager.
func (st *stack) monitorEntries() uint64 {
	var n uint64
	for _, nd := range st.nodes {
		n += nd.m.MonitorEntries()
	}
	return n
}

// storeStats sums the storage drivers' counters.
func (st *stack) storeStats() store.Stats {
	var out store.Stats
	for _, n := range st.nodes {
		s := n.db.StoreStats()
		out.Rows += s.Rows
		out.FilePages += s.FilePages
		out.PageSize = s.PageSize
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.Evictions += s.Evictions
		out.PagesRead += s.PagesRead
		out.PagesWritten += s.PagesWritten
		out.Checkpoints += s.Checkpoints
	}
	return out
}

// dbStats sums the ldbs engine counters.
func (st *stack) dbStats() ldbs.Stats {
	var out ldbs.Stats
	for _, n := range st.nodes {
		s := n.db.Stats()
		out.Begun += s.Begun
		out.Committed += s.Committed
		out.Aborted += s.Aborted
		out.Deadlocks += s.Deadlocks
	}
	return out
}

// history returns every manager's committed-operation history.
func (st *stack) history() []core.HistoryEntry {
	var out []core.HistoryEntry
	for _, n := range st.nodes {
		out = append(out, n.m.History()...)
	}
	return out
}

// walBytes sums the bytes written to every node's WAL device.
func (st *stack) walBytes() int64 {
	var b int64
	for _, n := range st.nodes {
		b += n.wal.bytes.Load()
	}
	return b
}

// checkpointErr is the first checkpoint failure, or nil.
func (st *stack) checkpointErr() error {
	st.ckptMu.Lock()
	defer st.ckptMu.Unlock()
	return st.ckptErr
}

// close tears the stack down and waits for its goroutines.
func (st *stack) close() {
	for _, mc := range st.muxes {
		mc.Close()
	}
	if st.gw != nil {
		st.gw.Close()
		<-st.serveErr
	}
	st.stopBg()
	st.bg.Wait()
	for _, n := range st.nodes {
		if n.m != nil {
			n.m.Close()
		}
		if n.driver != nil {
			n.driver.Close()
		}
		if n.walFile != nil {
			n.walFile.Close()
		}
	}
}
