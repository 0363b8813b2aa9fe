package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"preserial/internal/clock"
	"preserial/internal/sem"
)

// Stats are monotonically increasing GTM counters.
type Stats struct {
	Begun        uint64
	Committed    uint64
	Aborted      uint64
	AbortsBy     map[AbortReason]uint64
	Grants       uint64 // invocations granted (immediately or after a wait)
	Waits        uint64 // invocations that had to queue
	Sleeps       uint64
	Awakes       uint64 // awakenings that resumed
	AwakeAborts  uint64 // awakenings that aborted (conflict during sleep)
	SSTs         uint64 // successful secure system transactions
	SSTFailures  uint64
	Reconciled   uint64 // commits whose X_new differed from A_temp
	DeniedAdmits uint64 // admissions refused by extension policies
}

// Manager is the Global Transaction Manager. It is a monitor: every method
// is safe for concurrent use, and all notifications fire outside the
// critical section.
type Manager struct {
	mon monitor

	clk   clock.Clock
	store Store
	opts  options
	obs   *Observability // nil unless WithObservability
	exec  *sstExecutor   // nil unless WithSSTExecutor

	mvcc mvccState // the monitor-free snapshot read path (mvcc.go)

	closeOnce sync.Once
	closed    chan struct{} // closed by Close; ends every Client wait

	txs      map[TxID]*transaction
	objs     map[ObjectID]*object
	sleepers map[TxID]*transaction // index over txs: state == StateSleeping

	stats     Stats
	history   []HistoryEntry
	commitSeq uint64 // global commit sequence (see commitRecord.seq)
}

// NewManager creates a GTM over the given store (which may be nil for a
// purely virtual manager, e.g. in unit tests of the scheduling logic).
func NewManager(store Store, opt ...Option) *Manager {
	m := &Manager{
		clk:      clock.Wall{},
		store:    store,
		txs:      make(map[TxID]*transaction),
		objs:     make(map[ObjectID]*object),
		sleepers: make(map[TxID]*transaction),
		closed:   make(chan struct{}),
	}
	m.stats.AbortsBy = make(map[AbortReason]uint64)
	m.opts = defaultOptions()
	for _, o := range opt {
		o(&m.opts)
	}
	if m.opts.clk != nil {
		m.clk = m.opts.clk
	}
	if m.opts.sleep == nil {
		m.opts.sleep = clock.Wall{}.Sleep
	}
	m.obs = m.opts.obs
	if m.opts.sstWorkers > 0 {
		var gauge *atomic.Int64
		if m.obs != nil {
			gauge = &m.obs.sstQueue
		}
		m.exec = newSSTExecutor(m.opts.sstWorkers, m.opts.sstQueueDepth, gauge)
	}
	m.mvcc.snaps = make(map[uint64]uint64)
	return m
}

// Close fails every Client call waiting on an event — and every later one
// that would have to wait — with ErrManagerClosed, then stops the SST
// executor (if any) after its queue drains. Nothing else wakes such a
// waiter once its manager is torn down (a killed shard, a crashed
// generation), so the error means the outcome is unknown, as for a
// dropped connection: an SST already launched may still land while the
// executor drains. Close is idempotent.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.closed) })
	if m.exec != nil {
		m.exec.close()
	}
}

// RegisterObject declares a database object to the GTM. refs maps data
// members to backing-store locations ("" is the member name for atomic
// objects); deps describes logical dependence between members (nil treats
// distinct members as independent).
func (m *Manager) RegisterObject(id ObjectID, refs map[string]StoreRef, deps *sem.Dependencies) error {
	defer m.mon.enter(m)()
	if _, ok := m.objs[id]; ok {
		return fmt.Errorf("%w: %s", ErrObjectExists, id)
	}
	m.objs[id] = newObject(id, refs, deps, m.opts.conflict)
	// The snapshot read path resolves members without the monitor; give it
	// an immutable copy of the ref map.
	frozen := make(map[string]StoreRef, len(refs))
	for member, ref := range refs {
		frozen[member] = ref
	}
	m.mvcc.objRefs.Store(id, frozen)
	return nil
}

// RegisterAtomicObject declares an unstructured object backed by a single
// store location.
func (m *Manager) RegisterAtomicObject(id ObjectID, ref StoreRef) error {
	return m.RegisterObject(id, map[string]StoreRef{"": ref}, nil)
}

// Objects returns the registered object ids in sorted order.
func (m *Manager) Objects() []ObjectID {
	defer m.mon.enter(m)()
	out := make([]ObjectID, 0, len(m.objs))
	for id := range m.objs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Begin implements ⟨begin,A⟩ (Algorithm 1): the transaction enters the
// Active state.
func (m *Manager) Begin(id TxID, opt ...TxOption) error {
	defer m.mon.enter(m)()
	if _, ok := m.txs[id]; ok {
		return fmt.Errorf("%w: %s", ErrTxExists, id)
	}
	t := newTransaction(id, m.clk.Now())
	for _, o := range opt {
		o(t)
	}
	m.txs[id] = t
	m.stats.Begun++
	if m.obs != nil {
		m.obs.begun.Inc()
		m.traceLocked("begin", t, "", 0, 0, "")
	}
	return nil
}

// Invoke implements ⟨op,X,A⟩ (Algorithm 2). If the operation is compatible
// with every non-sleeping pending and committing holder (and passes the
// optional admission extensions), it is granted immediately: the
// transaction gets a virtual copy seeded from X_permanent and Invoke
// returns granted=true. Otherwise the transaction moves to Waiting,
// granted=false is returned, and an EvGranted notification follows when the
// conflict clears. A wait that would close a cycle in the wait-for graph is
// refused with ErrDeadlock (the transaction stays Active; the caller
// decides whether to retry or abort).
func (m *Manager) Invoke(txID TxID, objID ObjectID, op sem.Op) (granted bool, err error) {
	defer m.mon.enter(m)()
	t, o, err := m.lookupLocked(txID, objID)
	if err != nil {
		return false, err
	}
	if t.state != StateActive {
		return false, fmt.Errorf("%w: %s is %s, invocation requires Active", ErrBadState, txID, t.state)
	}
	t.lastActivity = m.clk.Now()
	if !op.Class.Valid() {
		return false, fmt.Errorf("%w: invalid class %d", ErrOpClass, op.Class)
	}
	if _, ok := o.pending[txID]; ok {
		return false, fmt.Errorf("%w: %s on %s", ErrOneOpPerObj, txID, objID)
	}
	if _, ok := o.committing[txID]; ok {
		return false, fmt.Errorf("%w: %s already committing on %s", ErrOneOpPerObj, txID, objID)
	}
	if o.waiterFor(txID) != nil {
		return false, fmt.Errorf("%w: %s already queued on %s", ErrOneOpPerObj, txID, objID)
	}

	if reason := m.admissionBlockLocked(t, o, op, nil); reason != admitOK {
		cause := "policy"
		if reason == admitConflict {
			cause = "conflict"
			// Refuse waits that would deadlock.
			blockers := o.conflictingHolders(txID, op)
			if m.opts.detectDeadlocks && m.wouldDeadlockLocked(txID, blockers) {
				return false, fmt.Errorf("%w: %s waiting on %s", ErrDeadlock, txID, objID)
			}
			if m.obs != nil {
				m.obs.conflicts.Inc()
			}
		} else {
			m.stats.DeniedAdmits++
			if m.obs != nil {
				m.obs.denied.Inc()
			}
			if m.opts.denyHard {
				return false, fmt.Errorf("%w: %s on %s", ErrDenied, txID, objID)
			}
		}
		now := m.clk.Now()
		m.setStateLocked(t, StateWaiting)
		t.waitingOn = objID
		t.twait = now
		t.objects[objID] = true
		o.waiting = append(o.waiting, &waitEntry{tx: txID, op: op, since: now, priority: t.priority})
		m.stats.Waits++
		if m.obs != nil {
			m.obs.waits.Inc()
			m.traceLocked("wait", t, objID, 0, 0, cause)
		}
		return false, nil
	}

	if err := m.grantLocked(t, o, op); err != nil {
		return false, err
	}
	return true, nil
}

// admission verdicts.
type admitVerdict uint8

const (
	admitOK admitVerdict = iota
	admitConflict
	admitPolicy
)

// admissionBlockLocked decides whether an invocation may be granted right now:
// the Algorithm 2 compatibility precondition first, then the Section VII
// extensions (starvation control, constraint headroom). self is the
// candidate's queue entry when re-evaluating a waiter at dispatch (nil for
// a fresh invocation).
func (m *Manager) admissionBlockLocked(t *transaction, o *object, op sem.Op, self *waitEntry) admitVerdict {
	if o.holdersConflicting(t.id, op) {
		return admitConflict
	}
	if limit := m.opts.incompatibleWaiterCap; limit > 0 && !o.holderless(op, t.id) {
		// Starvation control: deny a compatible admission when too many
		// incompatible transactions are queued ahead of the candidate.
		if o.incompatibleWaitersAhead(op, self) >= limit {
			return admitPolicy
		}
	}
	if m.opts.headroom != nil && op.Class.IsUpdate() {
		member := op.Member
		perm, err := m.loadPermanentLocked(o, member)
		if err == nil {
			limit := m.opts.headroom(o.id, perm)
			if limit >= 0 && o.compatibleUpdaters(t.id, op) >= limit {
				return admitPolicy
			}
		}
	}
	return admitOK
}

// grantLocked admits the invocation: Algorithm 2's compatible-path postcondition.
func (m *Manager) grantLocked(t *transaction, o *object, op sem.Op) error {
	perm, err := m.loadPermanentLocked(o, op.Member)
	if err != nil {
		return err
	}
	o.pending[t.id] = op
	o.read[t.id] = perm
	o.temp[t.id] = perm
	t.objects[o.id] = true
	m.stats.Grants++
	if m.obs != nil {
		m.obs.admits.Inc()
	}
	return nil
}

// loadPermanentLocked returns the X_permanent mirror for a member, loading it
// from the store on first access.
func (m *Manager) loadPermanentLocked(o *object, member string) (sem.Value, error) {
	if o.permKnown[member] {
		return o.permanent[member], nil
	}
	v := sem.Null()
	if ref, ok := o.refs[member]; ok && m.store != nil {
		loaded, err := m.store.Load(ref)
		if err != nil {
			return sem.Null(), fmt.Errorf("core: loading %s of %s: %w", member, o.id, err)
		}
		v = loaded
	}
	o.permanent[member] = v
	o.permKnown[member] = true
	return v, nil
}

// ReadValue returns the transaction's virtual value A_temp^X. The
// invocation must have been granted.
func (m *Manager) ReadValue(txID TxID, objID ObjectID) (sem.Value, error) {
	defer m.mon.enter(m)()
	t, o, err := m.lookupLocked(txID, objID)
	if err != nil {
		return sem.Value{}, err
	}
	if _, ok := o.pending[txID]; !ok {
		return sem.Value{}, fmt.Errorf("%w: %s on %s", ErrNotInvoked, txID, objID)
	}
	t.lastActivity = m.clk.Now()
	return o.temp[txID], nil
}

// Apply performs one operation of the invoked class on the virtual copy:
// add/sub adds the (possibly negative) operand, mul/div multiplies by the
// (possibly fractional) operand, assign and insert overwrite, delete (a
// null operand to an insert/delete invocation) clears. Read invocations
// cannot modify.
func (m *Manager) Apply(txID TxID, objID ObjectID, operand sem.Value) error {
	defer m.mon.enter(m)()
	t, o, err := m.lookupLocked(txID, objID)
	if err != nil {
		return err
	}
	if t.state != StateActive {
		return fmt.Errorf("%w: %s is %s", ErrBadState, txID, t.state)
	}
	op, ok := o.pending[txID]
	if !ok {
		return fmt.Errorf("%w: %s on %s", ErrNotInvoked, txID, objID)
	}
	t.lastActivity = m.clk.Now()
	cur := o.temp[txID]
	var next sem.Value
	switch op.Class {
	case sem.AddSub:
		next, err = cur.Add(operand)
	case sem.MulDiv:
		next, err = cur.Mul(operand)
	case sem.Assign, sem.InsertDelete:
		next = operand
	case sem.Read:
		return fmt.Errorf("%w: read invocations cannot modify %s", ErrOpClass, objID)
	default:
		return fmt.Errorf("%w: %s", ErrOpClass, op.Class)
	}
	if err != nil {
		return fmt.Errorf("core: apply on %s: %w", objID, err)
	}
	o.temp[txID] = next
	return nil
}

// RequestCommit implements the commit protocol: a local commit
// ⟨commit,X,A⟩ (Algorithm 3) on every object the transaction holds — each
// requiring the object's exclusive committer slot, acquired in canonical
// object order so commits cannot deadlock — followed by the global commit
// ⟨commit,A⟩ (Algorithm 4), which runs the Secure System Transaction and
// publishes the reconciled values. The method returns immediately; when
// slots are contended the commit completes asynchronously and the outcome
// arrives as EvCommitted or EvAborted. Use CommitWait for a synchronous
// client.
func (m *Manager) RequestCommit(txID TxID) error {
	defer m.mon.enter(m)()
	return m.requestCommitLocked(txID, false)
}

// requestCommitLocked starts the commit protocol. prepare=true stops at the
// staged-write-set barrier (the cross-shard prepare) instead of launching
// the SST; see PrepareCommit.
func (m *Manager) requestCommitLocked(txID TxID, prepare bool) error {
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state != StateActive {
		return fmt.Errorf("%w: %s is %s, commit requires Active", ErrBadState, txID, t.state)
	}
	t.preparing = prepare
	t.lastActivity = m.clk.Now()
	t.commitStart = t.lastActivity
	m.setStateLocked(t, StateCommitting)
	// Collect the objects with a live invocation, in canonical order.
	// Read-class invocations are split off: they need no committer slot and
	// no reconciliation, so their pending slots are released right here (the
	// read-class local commit) instead of riding the slot pipeline until the
	// global commit — a pure read must not block conflicting writers for the
	// duration of someone else's SST.
	var want []ObjectID
	var reads []*object
	for objID := range t.objects {
		o := m.objs[objID]
		op, ok := o.pending[txID]
		if !ok {
			continue
		}
		if op.Class == sem.Read {
			reads = append(reads, o)
			continue
		}
		want = append(want, objID)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	sort.Slice(reads, func(i, j int) bool { return reads[i].id < reads[j].id })
	t.commitWant = want
	for _, o := range reads {
		m.releaseReadSlotLocked(t, o)
	}
	m.advanceCommitLocked(t)
	return nil
}

// releaseReadSlotLocked local-commits one read-class invocation without the
// committer slot: the virtual value is captured for the publish phase, the
// pending slot frees immediately (conflicting waiters become admissible),
// and the op stays visible to awakening sleepers via releasedReads until
// the transaction publishes or aborts.
func (m *Manager) releaseReadSlotLocked(t *transaction, o *object) {
	op := o.pending[t.id]
	t.readLocals = append(t.readLocals, localWrite{o: o, op: op, val: o.temp[t.id], read: o.read[t.id]})
	o.releasedReads[t.id] = op
	delete(o.pending, t.id)
	delete(o.temp, t.id)
	delete(o.read, t.id)
	m.dispatchLocked(o)
}

// advanceCommitLocked acquires committer slots in order, performing the local
// commit on each object as its slot is obtained, and fires the global
// commit (or, for a preparing transaction, stages the write set) once every
// slot is held. Called whenever a slot may have freed.
func (m *Manager) advanceCommitLocked(t *transaction) {
	if t.prepared {
		return // staged already; only Decide moves it forward
	}
	for len(t.commitWant) > 0 {
		objID := t.commitWant[0]
		o := m.objs[objID]
		if len(o.committing) > 0 {
			// Another transaction holds the committer slot; queue behind it
			// (Algorithm 3's one-committer precondition).
			if !containsTx(o.commitQ, t.id) {
				o.commitQ = append(o.commitQ, t.id)
			}
			return
		}
		if err := m.localCommitLocked(t, o); err != nil {
			m.finishAbortLocked(t, AbortSSTFailure, err)
			return
		}
		t.commitWant = t.commitWant[1:]
		t.commitHeld[objID] = true
		// The object lost a pending holder; waiters may now be admissible.
		m.dispatchLocked(o)
	}
	if t.preparing {
		m.stagePreparedLocked(t)
		return
	}
	m.globalCommitLocked(t)
}

// localCommitLocked is Algorithm 3's postcondition: compute X_new^A = ρ(X_read^A,
// A_temp^X, X_permanent) and move the transaction from X_pending to
// X_committing.
func (m *Manager) localCommitLocked(t *transaction, o *object) error {
	op := o.pending[t.id]
	rec, err := sem.ReconcilerFor(op.Class)
	if err != nil {
		return err
	}
	perm, err := m.loadPermanentLocked(o, op.Member)
	if err != nil {
		return err
	}
	neu, err := rec.Reconcile(o.read[t.id], o.temp[t.id], perm)
	if err != nil {
		return err
	}
	if !neu.Equal(o.temp[t.id]) {
		m.stats.Reconciled++
		if m.obs != nil {
			m.obs.reconciled.Inc()
		}
	}
	o.neu[t.id] = neu
	o.committing[t.id] = op
	delete(o.pending, t.id)
	delete(o.temp, t.id)
	// X_read is retained until the global commit for the history record.
	return nil
}

// localWrite carries one object's commit payload from the local-commit
// phase to the publish phase.
type localWrite struct {
	o    *object
	op   sem.Op
	val  sem.Value
	read sem.Value
}

// globalCommitLocked is Algorithm 4: every X_new is defined, so run the Secure
// System Transaction and publish. The SST executes *outside* the monitor —
// it is a separate transaction the LDBS runs while the GTM keeps handling
// events — so other transactions can work, queue, and contend for the
// committer slots meanwhile; the transaction stays in X_committing (and
// therefore conflicts with incompatible invocations) until the SST's
// outcome arrives in completeSST. On SST failure the transaction aborts
// (Section VII discusses this path: reconciled values can violate
// integrity constraints).
func (m *Manager) globalCommitLocked(t *transaction) {
	locals, writes := m.collectCommitLocked(t)
	if m.store == nil || len(writes) == 0 {
		m.publishLocked(t, locals)
		return
	}
	m.launchSSTLocked(t, locals, writes)
}

// collectCommitLocked assembles the commit payload from the held committer
// slots: the per-object publish records and the SST write set, both in
// canonical order.
func (m *Manager) collectCommitLocked(t *transaction) ([]localWrite, []SSTWrite) {
	var locals []localWrite
	var writes []SSTWrite
	locals = append(locals, t.readLocals...)
	for objID := range t.commitHeld {
		o := m.objs[objID]
		op := o.committing[t.id]
		lw := localWrite{o: o, op: op, val: o.neu[t.id], read: o.read[t.id]}
		if ref, ok := o.refs[op.Member]; ok && op.Class.IsUpdate() {
			writes = append(writes, SSTWrite{Ref: ref, Value: lw.val})
		}
		locals = append(locals, lw)
	}
	// commitHeld is a map: without sorting, concurrent SSTs would acquire
	// LDBS row locks in random per-transaction orders and could deadlock
	// each other. Canonical StoreRef order makes SST↔SST deadlocks
	// structurally impossible (and the history deterministic).
	SortSSTWrites(writes)
	sort.Slice(locals, func(i, j int) bool { return locals[i].o.id < locals[j].o.id })
	return locals, writes
}

// launchSSTLocked hands the Secure System Transaction to the executor or
// the goroutine exiting the monitor, and marks the commit point. sstActive
// covers the whole window from here to publication: while it is non-zero
// a store load is not committed-stable, and the snapshot read path's miss
// protocol retries instead of trusting it.
func (m *Manager) launchSSTLocked(t *transaction, locals []localWrite, writes []SSTWrite) {
	t.sstInFlight = true
	t.sstStart = m.clk.Now()
	m.mvcc.sstActive.Add(1)
	id := t.id
	run := func() {
		m.completeSST(id, locals, m.runSST(writes))
	}
	if m.exec != nil {
		// Hand the SST to the worker pool; the committing goroutine only
		// pays the enqueue.
		exec := m.exec
		m.mon.queue(func() { exec.submit(run) })
	} else {
		// Seed semantics: run on the goroutine exiting the monitor.
		m.mon.queue(run)
	}
}

// runSST executes one Secure System Transaction with the configured retry
// policy: up to sstRetries re-attempts for errors the filter accepts, with
// capped exponential backoff + jitter between attempts (no sleeping unless
// a backoff base is configured — WithSSTExecutor sets one).
func (m *Manager) runSST(writes []SSTWrite) error {
	retries := m.opts.sstRetries
	filter := m.opts.sstRetryFilter
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if m.obs != nil {
				m.obs.sstRetries.Inc()
			}
			if d := sstBackoff(m.opts.sstBackoffBase, m.opts.sstBackoffCap, attempt); d > 0 {
				m.opts.sleep(d)
			}
		}
		err = m.store.ApplySST(writes)
		if err == nil || attempt >= retries || (filter != nil && !filter(err)) {
			return err
		}
	}
}

// completeSST re-enters the monitor with the SST's outcome. The sstActive
// decrement is deferred to after the publish (or abort) so the snapshot
// miss protocol never certifies a store load taken between the SST's store
// write and its publication.
func (m *Manager) completeSST(id TxID, locals []localWrite, sstErr error) {
	defer m.mon.enter(m)()
	defer m.mvcc.sstActive.Add(-1)
	t, ok := m.txs[id]
	if !ok {
		return // forgotten mid-flight: impossible via the public API
	}
	t.sstInFlight = false
	if m.obs != nil {
		sinceIfSet(m.obs.sstLatency, t.sstStart, m.clk.Now())
	}
	if sstErr != nil {
		m.stats.SSTFailures++
		if m.obs != nil {
			m.obs.sstFailures.Inc()
		}
		m.finishAbortLocked(t, AbortSSTFailure, sstErr)
		return
	}
	m.stats.SSTs++
	if m.obs != nil {
		m.obs.ssts.Inc()
	}
	m.publishLocked(t, locals)
}

// publishLocked installs the commit: X_permanent = X_new, history and X_tc
// records, committer slots freed, waiters and queued committers
// dispatched. Caller holds the monitor.
func (m *Manager) publishLocked(t *transaction, locals []localWrite) {
	now := m.clk.Now()
	m.commitSeq++
	for _, lw := range locals {
		o := lw.o
		if lw.op.Class.IsUpdate() {
			m.pushVersionLocked(o, lw.op.Member, o.permanent[lw.op.Member], lw.val, m.commitSeq)
			o.permanent[lw.op.Member] = lw.val
			o.permKnown[lw.op.Member] = true
		}
		o.committed = append(o.committed, commitRecord{tx: t.id, op: lw.op, tc: now, seq: m.commitSeq})
		if m.opts.recordHistory {
			m.history = append(m.history, HistoryEntry{
				Tx: t.id, Object: o.id, Op: lw.op, Read: lw.read, New: lw.val, TC: now,
			})
		}
		delete(o.committing, t.id)
		delete(o.neu, t.id)
		delete(o.read, t.id)
		delete(o.releasedReads, t.id)
	}
	// Version pushes above happen-before the sequence becomes pinnable:
	// a snapshot opened at N sees every chain node of every commit ≤ N.
	m.mvcc.seq.Store(m.commitSeq)
	m.setStateLocked(t, StateCommitted)
	t.finished = now
	t.twait = time.Time{}
	t.tsleep = time.Time{}
	m.stats.Committed++
	if m.obs != nil {
		m.obs.commits.Inc()
		sinceIfSet(m.obs.commitLatency, t.commitStart, now)
	}
	m.notifyTxLocked(t, Event{Type: EvCommitted, Tx: t.id})
	m.pruneHistoriesLocked()
	for _, lw := range locals {
		m.dispatchLocked(lw.o)
	}
}

// Abort implements ⟨abort,X,A⟩ / ⟨abort,A⟩ (Algorithms 5–6) for a
// client-requested abort. Any non-terminal transaction may abort.
func (m *Manager) Abort(txID TxID) error {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state.Terminal() {
		return fmt.Errorf("%w: %s already %s", ErrBadState, txID, t.state)
	}
	if t.sstInFlight {
		// The SST has launched: the transaction is past its commit point.
		return fmt.Errorf("%w: %s is committing (SST in flight)", ErrBadState, txID)
	}
	if t.prepared {
		// In doubt: a coordinator owns the outcome now. Only Decide may
		// abort a prepared participant.
		return fmt.Errorf("%w: %s is prepared, awaiting coordinator decision", ErrBadState, txID)
	}
	m.setStateLocked(t, StateAborting)
	m.finishAbortLocked(t, AbortUser, nil)
	return nil
}

// finishAbortLocked clears the transaction from every object and finalizes
// Algorithm 6's postcondition. Objects are re-dispatched because the abort
// may free holders or committer slots.
func (m *Manager) finishAbortLocked(t *transaction, reason AbortReason, cause error) {
	var touched []*object
	for objID := range t.objects {
		o := m.objs[objID]
		o.dropTx(t.id)
		touched = append(touched, o)
	}
	if t.state != StateAborting {
		m.setStateLocked(t, StateAborting)
	}
	m.setStateLocked(t, StateAborted)
	t.finished = m.clk.Now()
	t.reason = reason
	t.lastErr = cause
	t.twait = time.Time{}
	t.tsleep = time.Time{}
	t.waitingOn = ""
	t.commitWant = nil
	t.readLocals = nil
	t.preparing = false
	t.prepared = false
	t.stagedLocals = nil
	t.stagedWrites = nil
	m.stats.Aborted++
	m.stats.AbortsBy[reason]++
	if m.obs != nil {
		m.obs.observeAbort(reason)
		m.traceLocked("abort", t, "", 0, 0, reason.String())
	}
	m.notifyTxLocked(t, Event{Type: EvAborted, Tx: t.id, Reason: reason, Err: cause})
	sort.Slice(touched, func(i, j int) bool { return touched[i].id < touched[j].id })
	for _, o := range touched {
		m.dispatchLocked(o)
	}
}

// Sleep implements ⟨sleep,A⟩ + ⟨sleep,X,A⟩ (Algorithms 7–8): the oracle Ξ
// is the caller (the connection layer or the disconnection model). The
// transaction must be Active or Waiting. Objects the sleeper holds become
// available to other transactions — including incompatible ones, which is
// what makes awakening conditional.
func (m *Manager) Sleep(txID TxID) error {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	return m.sleepLocked(t)
}

// sleepLocked is Sleep's body; the caller holds the monitor.
func (m *Manager) sleepLocked(t *transaction) error {
	if t.state != StateActive && t.state != StateWaiting {
		return fmt.Errorf("%w: %s is %s, sleep requires Active or Waiting", ErrBadState, t.id, t.state)
	}
	m.setStateLocked(t, StateSleeping)
	t.tsleep = m.clk.Now()
	t.sleepSeq = m.commitSeq
	m.stats.Sleeps++
	if m.obs != nil {
		m.obs.sleeps.Inc()
	}
	var touched []*object
	for objID := range t.objects {
		o := m.objs[objID]
		o.sleeping[t.id] = true
		touched = append(touched, o)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i].id < touched[j].id })
	// A sleeping holder no longer blocks admissions: re-dispatch.
	for _, o := range touched {
		m.dispatchLocked(o)
	}
	return nil
}

// SleepAllLive puts every Active or Waiting transaction to sleep in one
// critical section — the graceful-drain hook: a stopping server parks its
// live transactions so they survive the restart (clients re-attach and
// awaken) instead of dying with the process. Committing, Sleeping and
// terminal transactions are untouched. Returns the ids slept, in order.
func (m *Manager) SleepAllLive() []TxID {
	defer m.mon.enter(m)()
	ids := make([]TxID, 0, len(m.txs))
	for id, t := range m.txs {
		if t.state == StateActive || t.state == StateWaiting {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	slept := ids[:0]
	for _, id := range ids {
		if err := m.sleepLocked(m.txs[id]); err == nil {
			slept = append(slept, id)
		}
	}
	return slept
}

// Awake implements ⟨awake,X,A⟩ + ⟨awake,A⟩ (Algorithms 9–10). If no
// incompatible transaction entered X_pending ∪ X_committing or committed
// after A_tsleep on any object the sleeper touched, the transaction
// resumes: queued invocations are granted directly (with fresh virtual
// copies) and the state returns to Active (or Waiting when admission
// policies still defer a queued invocation). Otherwise the transaction is
// aborted with AbortSleepConflict and resumed=false is returned.
func (m *Manager) Awake(txID TxID) (resumed bool, err error) {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if t.state != StateSleeping {
		return false, fmt.Errorf("%w: %s is %s, awake requires Sleeping", ErrBadState, txID, t.state)
	}

	// Phase 1: the per-object conflict checks of Algorithm 9.
	for objID := range t.objects {
		o := m.objs[objID]
		var op sem.Op
		if p, ok := o.pending[txID]; ok {
			op = p
		} else if w := o.waiterFor(txID); w != nil {
			op = w.op
		} else {
			continue
		}
		if o.sleepConflict(txID, op, t.sleepSeq) {
			m.setStateLocked(t, StateAborting)
			m.stats.AwakeAborts++
			if m.obs != nil {
				m.obs.awakesAborted.Inc()
			}
			m.finishAbortLocked(t, AbortSleepConflict, nil)
			return false, nil
		}
	}

	// Phase 2: resume. Queued invocations are granted directly with fresh
	// reads of X_permanent; held invocations keep their virtual copies
	// (only compatible operations can have committed meanwhile, and the
	// commit-time reconciliation absorbs those).
	for objID := range t.objects {
		o := m.objs[objID]
		delete(o.sleeping, txID)
		if w := o.removeWaiter(txID); w != nil {
			if err := m.grantLocked(t, o, w.op); err != nil {
				// No SST ran: the permanent value failed to load while
				// re-granting the queued invocation.
				m.setStateLocked(t, StateAborting)
				m.finishAbortLocked(t, AbortResumeFailure, err)
				return false, err
			}
		}
	}
	m.setStateLocked(t, StateActive)
	t.tsleep = time.Time{}
	t.twait = time.Time{}
	t.waitingOn = ""
	t.lastActivity = m.clk.Now()
	m.stats.Awakes++
	if m.obs != nil {
		m.obs.awakesResumed.Inc()
	}
	// Admissions this sleeper was indirectly blocking may now proceed.
	for objID := range t.objects {
		m.dispatchLocked(m.objs[objID])
	}
	return true, nil
}

// dispatchLocked is the generalized ⟨unlock,X⟩ (Algorithm 11): whenever an
// object's holder set shrinks (commit, abort, sleep), grant the committer
// slot to the next queued committer and admit every waiting invocation
// that no longer conflicts with (X_pending − X_sleeping) ∪ X_committing —
// θ(X_waiting − X_sleeping), with θ the maximal admissible prefix in
// priority-then-arrival order.
func (m *Manager) dispatchLocked(o *object) {
	// Committer slot first: commit progress beats new admissions.
	for len(o.committing) == 0 && len(o.commitQ) > 0 {
		next := o.commitQ[0]
		o.commitQ = o.commitQ[1:]
		t := m.txs[next]
		if t == nil || t.state != StateCommitting {
			continue
		}
		m.advanceCommitLocked(t)
	}

	// Admission pass over the waiting queue.
	ordered := make([]*waitEntry, len(o.waiting))
	copy(ordered, o.waiting)
	if m.opts.usePriorities {
		sort.SliceStable(ordered, func(i, j int) bool {
			if ordered[i].priority != ordered[j].priority {
				return ordered[i].priority > ordered[j].priority
			}
			return ordered[i].since.Before(ordered[j].since)
		})
	}
	for _, w := range ordered {
		t := m.txs[w.tx]
		if t == nil || t.state != StateWaiting || o.sleeping[w.tx] {
			continue // sleeping waiters stay queued (X_waiting − X_sleeping)
		}
		if m.admissionBlockLocked(t, o, w.op, w) != admitOK {
			if m.opts.usePriorities {
				continue // lower-priority waiters may still fit
			}
			break // FIFO: nobody overtakes the blocked head
		}
		o.removeWaiter(w.tx)
		if err := m.grantLocked(t, o, w.op); err != nil {
			m.setStateLocked(t, StateAborting)
			m.finishAbortLocked(t, AbortResumeFailure, err)
			continue
		}
		m.setStateLocked(t, StateActive)
		t.waitingOn = ""
		t.twait = time.Time{}
		if m.obs != nil {
			sinceIfSet(m.obs.invokeWait, w.since, m.clk.Now())
			m.traceLocked("grant", t, o.id, 0, 0, "")
		}
		m.notifyTxLocked(t, Event{Type: EvGranted, Tx: t.id, Object: o.id})
	}
}

// wouldDeadlockLocked reports whether txID waiting on blockers closes a cycle in
// the wait-for graph built from the current object states.
func (m *Manager) wouldDeadlockLocked(txID TxID, blockers []TxID) bool {
	edges := m.waitEdgesLocked()
	seen := make(map[TxID]bool)
	var reaches func(TxID) bool
	reaches = func(from TxID) bool {
		if from == txID {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		for _, next := range edges[from] {
			if reaches(next) {
				return true
			}
		}
		return false
	}
	for _, b := range blockers {
		if reaches(b) {
			return true
		}
	}
	return false
}

// waitEdgesLocked builds the wait-for graph: waiting transactions point at the
// holders that block them, queued committers at the committer-slot holder.
func (m *Manager) waitEdgesLocked() map[TxID][]TxID {
	edges := make(map[TxID][]TxID)
	for _, o := range m.objs {
		for _, w := range o.waiting {
			if o.sleeping[w.tx] {
				continue
			}
			edges[w.tx] = append(edges[w.tx], o.conflictingHolders(w.tx, w.op)...)
		}
		if len(o.committing) > 0 {
			for holder := range o.committing {
				for _, q := range o.commitQ {
					edges[q] = append(edges[q], holder)
				}
			}
		}
	}
	return edges
}

// lookupLocked resolves a (transaction, object) pair.
func (m *Manager) lookupLocked(txID TxID, objID ObjectID) (*transaction, *object, error) {
	t, ok := m.txs[txID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	o, ok := m.objs[objID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	return t, o, nil
}

// setStateLocked applies a transition of the transaction state machine S(A),
// panicking on an illegal transition — such a transition is always a bug in
// the Manager, never an environmental condition.
func (m *Manager) setStateLocked(t *transaction, to State) {
	if !canTransition(t.state, to) {
		panic(fmt.Sprintf("core: illegal state transition %s -> %s for %s", t.state, to, t.id))
	}
	if t.state != to {
		m.traceLocked("state", t, "", t.state, to, "")
	}
	if to == StateSleeping {
		m.sleepers[t.id] = t
	} else if t.state == StateSleeping {
		delete(m.sleepers, t.id)
	}
	t.state = to
}

// notifyTxLocked queues an event for delivery after the critical section.
func (m *Manager) notifyTxLocked(t *transaction, ev Event) {
	if t.notify == nil {
		return
	}
	fn := t.notify
	m.mon.queue(func() { fn(ev) })
}

// pruneHistoriesLocked trims per-object committed histories to what awakening
// sleepers can still need: entries at or after the earliest live A_tsleep.
func (m *Manager) pruneHistoriesLocked() {
	if m.opts.keepFullHistory {
		return
	}
	// Only sleepers pin the horizon, and they are indexed — scanning all of
	// m.txs here made every commit O(live+terminal) under the monitor, which
	// dominated server CPU once a few thousand terminal transactions had
	// accumulated between sweeps.
	horizon := m.clk.Now()
	seqHorizon := m.commitSeq
	for _, t := range m.sleepers {
		if t.tsleep.Before(horizon) {
			horizon = t.tsleep
		}
		if t.sleepSeq < seqHorizon {
			seqHorizon = t.sleepSeq
		}
	}
	for _, o := range m.objs {
		o.pruneCommitted(horizon)
	}
	m.gcVersionsLocked(seqHorizon)
}

// TxState returns the current state of a transaction.
func (m *Manager) TxState(txID TxID) (State, error) {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	return t.state, nil
}

// TxInfo returns a snapshot of a transaction.
func (m *Manager) TxInfo(txID TxID) (TxInfo, error) {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return TxInfo{}, fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	objs := make([]ObjectID, 0, len(t.objects))
	for id := range t.objects {
		objs = append(objs, id)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return TxInfo{
		ID: t.id, State: t.state, Began: t.began, Finished: t.finished,
		Sleeping: t.tsleep, Reason: t.reason, Err: t.lastErr,
		Objects: objs, Priority: t.priority,
	}, nil
}

// Permanent returns the GTM's X_permanent mirror of a member.
func (m *Manager) Permanent(objID ObjectID, member string) (sem.Value, error) {
	defer m.mon.enter(m)()
	o, ok := m.objs[objID]
	if !ok {
		return sem.Value{}, fmt.Errorf("%w: %s", ErrUnknownObject, objID)
	}
	return m.loadPermanentLocked(o, member)
}

// Stats returns a copy of the manager's counters.
func (m *Manager) Stats() Stats {
	defer m.mon.enter(m)()
	out := m.stats
	out.AbortsBy = make(map[AbortReason]uint64, len(m.stats.AbortsBy))
	for k, v := range m.stats.AbortsBy {
		out.AbortsBy[k] = v
	}
	return out
}

// History returns the committed-operation history (empty unless the
// manager was created WithHistory).
func (m *Manager) History() []HistoryEntry {
	defer m.mon.enter(m)()
	out := make([]HistoryEntry, len(m.history))
	copy(out, m.history)
	return out
}

// Forget removes a terminal transaction from the registry so its id can be
// reused and memory reclaimed. Long-running deployments call this after
// consuming the final notification.
func (m *Manager) Forget(txID TxID) error {
	defer m.mon.enter(m)()
	t, ok := m.txs[txID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTx, txID)
	}
	if !t.state.Terminal() {
		return fmt.Errorf("%w: %s is %s, only terminal transactions can be forgotten", ErrBadState, txID, t.state)
	}
	delete(m.txs, txID)
	return nil
}

// containsTx reports membership in a TxID slice.
func containsTx(s []TxID, id TxID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// holderless reports whether the object currently has no non-sleeping
// holder whose op shares op's dependency group — used by the starvation
// extension, which only defers compatible *joins* (the first holder is
// always admitted).
func (o *object) holderless(op sem.Op, tx TxID) bool {
	for b, bop := range o.pending {
		if b == tx || o.sleeping[b] {
			continue
		}
		if o.deps.Dependent(bop.Member, op.Member) {
			return false
		}
	}
	for b, bop := range o.committing {
		if b != tx && o.deps.Dependent(bop.Member, op.Member) {
			return false
		}
	}
	return true
}
