package main

import (
	"context"
	"os"
	"sync/atomic"

	"preserial/internal/core"
	"preserial/internal/ldbs/store"
	"preserial/internal/sem"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// This file wraps each layer's public boundary so the traced run records
// a span around every call into the layer. A wrapper forwards exactly the
// optional interfaces its wrapped value implements: the program probes
// them by type assertion (the engine asks its backend for
// SnapshotBackend, the GTM asks its store for BatchStore, …), and a
// wrapper that hid or invented one would make the traced run execute a
// different program.

// ---- core: wire.Backend and wire.Session ----

// tracedBackend records "core.*" spans around a backend's calls.
type tracedBackend struct {
	wire.Backend
	t *tracer
}

func (b *tracedBackend) Begin(tx string) (wire.Session, error) {
	var s wire.Session
	err := b.t.do("core.begin", tx, 0, func() (err error) {
		s, err = b.Backend.Begin(tx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return wrapSession(s, tx, b.t), nil
}

// tracedSnapshots is the SnapshotBackend half of a traced backend.
type tracedSnapshots struct {
	sb wire.SnapshotBackend
	t  *tracer
}

func (b tracedSnapshots) BeginSnapshot(tx string) (wire.Session, error) {
	var s wire.Session
	err := b.t.do("core.begin_snapshot", tx, 0, func() (err error) {
		s, err = b.sb.BeginSnapshot(tx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return wrapSession(s, tx, b.t), nil
}

func (b tracedSnapshots) SnapshotRead(object, member string) (wire.Value, error) {
	var v wire.Value
	err := b.t.do("core.snapshot_read", object, 0, func() (err error) {
		v, err = b.sb.SnapshotRead(object, member)
		return err
	})
	return v, err
}

// wrapBackend returns b with "core.*" spans, implementing exactly the
// optional backend interfaces b implements.
func wrapBackend(b wire.Backend, t *tracer) wire.Backend {
	base := &tracedBackend{Backend: b, t: t}
	sb, isSnap := b.(wire.SnapshotBackend)
	rb, isReplay := b.(wire.ReplayBackend)
	shb, isShard := b.(wire.ShardBackend)
	snap := tracedSnapshots{sb, t}
	switch {
	case isSnap && isReplay && isShard:
		return struct {
			*tracedBackend
			tracedSnapshots
			wire.ReplayBackend
			wire.ShardBackend
		}{base, snap, rb, shb}
	case isSnap && isReplay:
		return struct {
			*tracedBackend
			tracedSnapshots
			wire.ReplayBackend
		}{base, snap, rb}
	case isSnap && isShard:
		return struct {
			*tracedBackend
			tracedSnapshots
			wire.ShardBackend
		}{base, snap, shb}
	case isReplay && isShard:
		return struct {
			*tracedBackend
			wire.ReplayBackend
			wire.ShardBackend
		}{base, rb, shb}
	case isSnap:
		return struct {
			*tracedBackend
			tracedSnapshots
		}{base, snap}
	case isReplay:
		return struct {
			*tracedBackend
			wire.ReplayBackend
		}{base, rb}
	case isShard:
		return struct {
			*tracedBackend
			wire.ShardBackend
		}{base, shb}
	}
	return base
}

// tracedSession records "core.*" spans around one transaction's calls.
type tracedSession struct {
	s  wire.Session
	tx string
	t  *tracer
}

func (s *tracedSession) Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error {
	return s.t.do("core.invoke", s.tx, 0, func() error { return s.s.Invoke(ctx, obj, op) })
}

func (s *tracedSession) Read(obj core.ObjectID) (sem.Value, error) {
	var v sem.Value
	err := s.t.do("core.read", s.tx, 0, func() (err error) {
		v, err = s.s.Read(obj)
		return err
	})
	return v, err
}

func (s *tracedSession) Apply(obj core.ObjectID, operand sem.Value) error {
	return s.t.do("core.apply", s.tx, 0, func() error { return s.s.Apply(obj, operand) })
}

func (s *tracedSession) Commit(ctx context.Context) error {
	return s.t.do("core.commit", s.tx, 0, func() error { return s.s.Commit(ctx) })
}

func (s *tracedSession) Abort() error {
	return s.t.do("core.abort", s.tx, 0, s.s.Abort)
}

func (s *tracedSession) Sleep() error {
	return s.t.do("core.sleep", s.tx, 0, s.s.Sleep)
}

func (s *tracedSession) Awake() (bool, error) {
	var resumed bool
	err := s.t.do("core.awake", s.tx, 0, func() (err error) {
		resumed, err = s.s.Awake()
		return err
	})
	return resumed, err
}

// tracedTwoPhase is the TwoPhaseSession half of a traced session.
type tracedTwoPhase struct {
	tp wire.TwoPhaseSession
	tx string
	t  *tracer
}

func (s tracedTwoPhase) Prepare(ctx context.Context) ([]wire.SSTWriteJSON, error) {
	var ws []wire.SSTWriteJSON
	err := s.t.do("core.prepare", s.tx, 0, func() (err error) {
		ws, err = s.tp.Prepare(ctx)
		return err
	})
	return ws, err
}

func (s tracedTwoPhase) Decide(ctx context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	return s.t.do("core.decide", s.tx, 0, func() error { return s.tp.Decide(ctx, commit, extra) })
}

// doner is the engine's probe for released snapshot sessions.
type doner interface{ Done() bool }

// wrapSession returns s with "core.*" spans, implementing exactly the
// optional session interfaces s implements.
func wrapSession(s wire.Session, tx string, t *tracer) wire.Session {
	base := &tracedSession{s: s, tx: tx, t: t}
	tp, isTP := s.(wire.TwoPhaseSession)
	ro, isRO := s.(wire.ReadOnlySession)
	dn, isDone := s.(doner)
	two := tracedTwoPhase{tp, tx, t}
	switch {
	case isTP && isRO && isDone:
		return struct {
			*tracedSession
			tracedTwoPhase
			wire.ReadOnlySession
			doner
		}{base, two, ro, dn}
	case isTP && isRO:
		return struct {
			*tracedSession
			tracedTwoPhase
			wire.ReadOnlySession
		}{base, two, ro}
	case isTP && isDone:
		return struct {
			*tracedSession
			tracedTwoPhase
			doner
		}{base, two, dn}
	case isRO && isDone:
		return struct {
			*tracedSession
			wire.ReadOnlySession
			doner
		}{base, ro, dn}
	case isTP:
		return struct {
			*tracedSession
			tracedTwoPhase
		}{base, two}
	case isRO:
		return struct {
			*tracedSession
			wire.ReadOnlySession
		}{base, ro}
	case isDone:
		return struct {
			*tracedSession
			doner
		}{base, dn}
	}
	return base
}

// ---- ldbs: core.Store ----

// tracedStore records "ldbs.*" spans around the GTM's store calls and
// tracks how many SSTs are in flight at once.
type tracedStore struct {
	s        core.Store
	t        *tracer
	inflight atomic.Int64
	maxIn    atomic.Int64
	errs     atomic.Int64
	writes   atomic.Int64
}

func (s *tracedStore) Load(ref core.StoreRef) (sem.Value, error) {
	var v sem.Value
	err := s.t.do("ldbs.load", "", 0, func() (err error) {
		v, err = s.s.Load(ref)
		return err
	})
	return v, err
}

func (s *tracedStore) ApplySST(writes []core.SSTWrite) error {
	return s.sst("ldbs.sst", len(writes), func() error { return s.s.ApplySST(writes) })
}

// sst runs one SST-shaped call, counting concurrency and errors.
func (s *tracedStore) sst(name string, writes int, fn func() error) error {
	n := s.inflight.Add(1)
	for m := s.maxIn.Load(); n > m && !s.maxIn.CompareAndSwap(m, n); m = s.maxIn.Load() {
	}
	s.writes.Add(int64(writes))
	err := s.t.do(name, "", 0, fn)
	s.inflight.Add(-1)
	if err != nil {
		s.errs.Add(1)
	}
	return err
}

// tracedBatch is the BatchStore half of a traced store.
type tracedBatch struct {
	s  *tracedStore
	bs core.BatchStore
}

func (b tracedBatch) ApplySSTBatch(sets [][]core.SSTWrite) error {
	n := 0
	for _, ws := range sets {
		n += len(ws)
	}
	return b.s.sst("ldbs.sst_batch", n, func() error { return b.bs.ApplySSTBatch(sets) })
}

// tracedValidator is the SSTValidator half of a traced store.
type tracedValidator struct {
	s *tracedStore
	v core.SSTValidator
}

func (v tracedValidator) ValidateSST(writes []core.SSTWrite) error {
	return v.s.t.do("ldbs.validate", "", 0, func() error { return v.v.ValidateSST(writes) })
}

// wrapStore returns s with "ldbs.*" spans, implementing exactly the
// optional store interfaces s implements, and the counter holder.
func wrapStore(s core.Store, t *tracer) (core.Store, *tracedStore) {
	base := &tracedStore{s: s, t: t}
	bs, isBatch := s.(core.BatchStore)
	v, isVal := s.(core.SSTValidator)
	switch {
	case isBatch && isVal:
		return struct {
			*tracedStore
			tracedBatch
			tracedValidator
		}{base, tracedBatch{base, bs}, tracedValidator{base, v}}, base
	case isBatch:
		return struct {
			*tracedStore
			tracedBatch
		}{base, tracedBatch{base, bs}}, base
	case isVal:
		return struct {
			*tracedStore
			tracedValidator
		}{base, tracedValidator{base, v}}, base
	}
	return base, base
}

// ---- wal: the WAL's io.Writer + Sync ----

// walDevice is the stable storage under the WAL, as the benchmark's flush
// policy defines it: appends go to a file in the work directory and Sync
// returns without forcing the page cache, as on tmpfs. Device latency is
// ldbs's own SyncDelay, paid by the WAL after Sync returns. With a tracer
// it records "wal.write" and "wal.sync" spans.
type walDevice struct {
	f     *os.File
	t     *tracer
	bytes atomic.Int64
}

func (d *walDevice) Write(p []byte) (int, error) {
	id, st := d.t.start()
	n, err := d.f.Write(p)
	d.t.end(id, st, "wal.write", "", 0)
	d.bytes.Add(int64(n))
	return n, err
}

func (d *walDevice) Sync() error {
	id, st := d.t.start()
	d.t.end(id, st, "wal.sync", "", 0)
	return nil
}

// ---- store: store.Driver and store.Table ----

// tracedDriver records "store.*" spans around a storage driver's calls.
type tracedDriver struct {
	store.Driver
	t *tracer
}

func (d *tracedDriver) CreateTable(name string) (store.Table, error) {
	tb, err := d.Driver.CreateTable(name)
	if err != nil {
		return nil, err
	}
	return &tracedTable{Table: tb, t: d.t}, nil
}

func (d *tracedDriver) Table(name string) (store.Table, bool) {
	tb, ok := d.Driver.Table(name)
	if !ok {
		return nil, false
	}
	return &tracedTable{Table: tb, t: d.t}, true
}

func (d *tracedDriver) Apply(batch []store.Write) error {
	return d.t.do("store.apply", "", 0, func() error { return d.Driver.Apply(batch) })
}

func (d *tracedDriver) Checkpoint() error {
	return d.t.do("store.checkpoint", "", 0, d.Driver.Checkpoint)
}

// tracedTable records "store.get" spans.
type tracedTable struct {
	store.Table
	t *tracer
}

func (tb *tracedTable) Get(key string) (store.Row, bool, error) {
	var (
		row store.Row
		ok  bool
	)
	err := tb.t.do("store.get", "", 0, func() (err error) {
		row, ok, err = tb.Table.Get(key)
		return err
	})
	return row, ok, err
}

// ---- shard: shard.Shard and shard.Session ----

// tracedShard records "shard.*" spans around the coordinator's calls into
// one participant.
type tracedShard struct {
	shard.Shard
	t *tracer
}

func (s *tracedShard) Begin(tx string) (shard.Session, error) {
	var sess shard.Session
	err := s.t.do("shard.begin", tx, 0, func() (err error) {
		sess, err = s.Shard.Begin(tx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &tracedShardSession{Session: sess, tx: tx, t: s.t}, nil
}

func (s *tracedShard) Decide(tx string, commit bool, extra []wire.SSTWriteJSON) error {
	return s.t.do("shard.resolve", tx, 0, func() error { return s.Shard.Decide(tx, commit, extra) })
}

// tracedShardSession records spans around one sub-transaction. Commit is
// the single-shard fast path; Prepare and Decide are the two 2PC phases.
type tracedShardSession struct {
	shard.Session
	tx string
	t  *tracer
}

func (s *tracedShardSession) Invoke(ctx context.Context, obj core.ObjectID, op sem.Op) error {
	return s.t.do("shard.invoke", s.tx, 0, func() error { return s.Session.Invoke(ctx, obj, op) })
}

func (s *tracedShardSession) Commit(ctx context.Context) error {
	return s.t.do("shard.commit", s.tx, 0, func() error { return s.Session.Commit(ctx) })
}

func (s *tracedShardSession) Prepare(ctx context.Context) ([]wire.SSTWriteJSON, error) {
	var ws []wire.SSTWriteJSON
	err := s.t.do("shard.prepare", s.tx, 0, func() (err error) {
		ws, err = s.Session.Prepare(ctx)
		return err
	})
	return ws, err
}

func (s *tracedShardSession) Decide(ctx context.Context, commit bool, extra []wire.SSTWriteJSON) error {
	return s.t.do("shard.decide", s.tx, 0, func() error { return s.Session.Decide(ctx, commit, extra) })
}
