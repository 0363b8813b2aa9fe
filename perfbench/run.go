package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/ldbs/store"
	"preserial/internal/obs"
)

// runResult is everything one run measured.
type runResult struct {
	setup      []float64 // seconds per set-up round
	rec        *recorder
	open       openStats
	openSecs   float64
	closedSecs float64
	heapPeak   uint64
	goroutPeak uint64
	checkErr   error

	// Counter deltas over warm-up + open + closed phase.
	goDelta  goStats
	mgr      core.Stats
	monitor  uint64
	db       ldbs.Stats
	store    store.Stats
	cluster  map[string]uint64
	walBytes int64
	walSyncs int64

	storeFileBytes int64 // page-file bytes at the end (disk driver)
	cacheBytes     int64 // disk page-cache budget per shard

	// Traced runs only.
	spans []span
	sst   sstCounters
	liveB int64 // bytes of live row data
}

// sstCounters copies the traced store's counters.
type sstCounters struct {
	inflightMax, errs, writes int64
}

// cacheBudgets remembers the scaleout page-cache budget measured once per
// process: a tenth of the seeded working set.
var cacheBudgets sync.Map // workload name → int64

// runOnce sets the stack up, drives the warm-up, open and closed phases,
// and checks the oracle. With repeatSetup the set-up is repeated at least
// setupRounds times and until the timed set-ups add up to setupBudget, so
// a set-up of a few milliseconds is still the median of many; the last
// stack is kept.
func runOnce(w *workload, seed int64, secs float64, tr *tracer, repeatSetup bool, work string) (*runResult, error) {
	res := &runResult{}
	spec := w.spec()
	if spec.shards > 0 {
		b, err := cacheBudget(w, work)
		if err != nil {
			return nil, err
		}
		spec.cacheBytes = b
	}
	res.cacheBytes = spec.cacheBytes
	dir := filepath.Join(work, "data", w.name)
	var st *stack
	var total time.Duration
	for i := 0; i == 0 || repeatSetup && (i < setupRounds || total < setupBudget); i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		st, err = openStack(spec, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		total += d
		res.setup = append(res.setup, d.Seconds())
	}
	defer st.close()

	openDur := time.Duration(secs * openShare * float64(time.Second))
	closedDur := time.Duration(secs*float64(time.Second)) - openDur
	arrivals := schedule(rand.New(rand.NewSource(seed)), w, openDur)
	rn := &runner{w: w, objs: spec.objects}
	for _, s := range st.sessions {
		s.rec = newRecorder()
	}
	closed := st.sessions[:w.closed]
	runtime.GC()

	goBefore, monBefore, dbBefore := readGoStats(), st.monitorEntries(), st.dbStats()
	storeBefore, syncsBefore := st.storeStats(), st.reg.Snapshot()[obs.NameWALFsyncs]
	walBytes := st.walBytes()
	rn.closedLoop(closed, seed+1, phaseWarm, warmup)
	smp := startSampler(5 * time.Millisecond)
	res.open = rn.openLoop(st.sessions, arrivals)
	rn.closedStart = time.Now()
	rn.closedLoop(closed, seed+2, phaseClosed, closedDur)
	res.heapPeak, res.goroutPeak = smp.finish()
	res.openSecs, res.closedSecs = openDur.Seconds(), closedDur.Seconds()

	goAfter := readGoStats()
	res.goDelta = goStats{gcCycles: goAfter.gcCycles - goBefore.gcCycles,
		allocBytes: goAfter.allocBytes - goBefore.allocBytes, gcPause: goAfter.gcPause - goBefore.gcPause}
	res.monitor = st.monitorEntries() - monBefore
	res.mgr = st.managerStats()
	dbAfter := st.dbStats()
	res.db = ldbs.Stats{Begun: dbAfter.Begun - dbBefore.Begun, Committed: dbAfter.Committed - dbBefore.Committed,
		Aborted: dbAfter.Aborted - dbBefore.Aborted, Deadlocks: dbAfter.Deadlocks - dbBefore.Deadlocks}
	storeAfter := st.storeStats()
	res.store = store.Stats{CacheHits: storeAfter.CacheHits - storeBefore.CacheHits,
		CacheMisses: storeAfter.CacheMisses - storeBefore.CacheMisses,
		Evictions:   storeAfter.Evictions - storeBefore.Evictions}
	res.storeFileBytes = storeAfter.FilePages * int64(storeAfter.PageSize)
	res.walSyncs = int64(st.reg.Snapshot()[obs.NameWALFsyncs] - syncsBefore)
	res.walBytes = st.walBytes() - walBytes
	if st.cluster != nil {
		res.cluster = st.cluster.Stats()
	}

	res.rec = newRecorder()
	for _, s := range st.sessions {
		res.rec.merge(s.rec)
	}
	res.checkErr = checkOracle(w, st, res.rec, spec.objects)
	if err := st.checkpointErr(); err != nil {
		res.checkErr = errors.Join(err, res.checkErr)
	}

	if tr != nil {
		for _, s := range st.sessions {
			if err := s.detach(); err != nil {
				return nil, fmt.Errorf("detach %s: %w", s.id, err)
			}
		}
		res.spans = tr.snapshot()
		for _, n := range st.nodes {
			res.sst.inflightMax = max(res.sst.inflightMax, n.sst.maxIn.Load())
			res.sst.errs += n.sst.errs.Load()
			res.sst.writes += n.sst.writes.Load()
		}
		res.liveB = liveBytes(spec.objects)
	}
	return res, nil
}

// cacheBudget measures the scaleout working set once: seed a stack with
// the driver's default cache, checkpoint, and take a tenth of each shard's
// page file.
func cacheBudget(w *workload, work string) (int64, error) {
	if b, ok := cacheBudgets.Load(w.name); ok {
		return b.(int64), nil
	}
	spec := w.spec()
	spec.sessions, spec.conns = 0, 1
	st, err := openStack(spec, filepath.Join(work, "data", w.name+"-calibrate"), nil)
	if err != nil {
		return 0, fmt.Errorf("cache calibration: %w", err)
	}
	s := st.storeStats()
	st.close()
	b := s.FilePages * int64(s.PageSize) / int64(spec.shards) / 10
	cacheBudgets.Store(w.name, b)
	return b, nil
}

// liveBytes estimates the bytes of live row data: key plus an 8-byte
// value and the column name per row.
func liveBytes(objs []objSpec) int64 {
	var n int64
	for _, o := range objs {
		n += int64(len(o.ref.Key) + len(o.ref.Column) + 8)
	}
	return n
}
