package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"preserial/internal/core"
	"preserial/internal/obs"
	"preserial/internal/sem"
)

// Owner identifies who currently drives a set of transactions: a plain
// client's TCP connection or a logical session (both in internal/gateway).
// The engine uses owners for the paper's disconnection semantics — when an
// owner goes away, its live transactions are put to sleep, not aborted —
// and for the ownership handoff that keeps a reconnecting client from
// having its freshly re-attached transaction parked by the old owner's
// teardown.
type Owner struct {
	key any // identity token; two Owners are the same iff keys are ==

	mu    sync.Mutex      // one owner's transactions may run on concurrent handlers
	owned map[string]bool // live transactions begun or attached by this owner
}

// NewOwner creates an owner identified by key. The key must be comparable
// and unique per owner (the conn, the session struct pointer, …).
func NewOwner(key any) *Owner {
	return &Owner{key: key, owned: make(map[string]bool)}
}

// Owned lists the transaction ids this owner has begun or attached that
// have not yet reached a terminal outcome under it.
func (o *Owner) Owned() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.owned))
	for id := range o.owned {
		out = append(out, id)
	}
	return out
}

// Forget drops tx from the owner's owned set. The engine forgets a
// transaction when it reaches its terminal outcome, and the gateway prunes
// a parked session's owned list against the engine on resume — either way,
// a finished transaction stops costing the owner bytes.
func (o *Owner) Forget(tx string) {
	o.mu.Lock()
	delete(o.owned, tx)
	o.mu.Unlock()
}

// remember adds tx to the owned set.
func (o *Owner) remember(tx string) {
	o.mu.Lock()
	o.owned[tx] = true
	o.mu.Unlock()
}

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// Logger receives engine events; nil silences them.
	Logger *log.Logger
	// InvokeTimeout bounds a blocking invoke; zero means no limit.
	InvokeTimeout time.Duration
	// Retention is how long terminal (committed/aborted) transactions stay
	// queryable before the engine forgets them and frees their state.
	// Zero means 10 minutes; negative retains forever.
	Retention time.Duration
	// DedupWindow is how many recent mutating requests per transaction are
	// remembered for exactly-once replay of client retries. Zero means
	// DefaultDedupWindow.
	DedupWindow int
	// Obs, when non-nil, receives the engine's replay/drain counters.
	Obs *obs.Registry
}

// Engine executes protocol requests against a Backend. It owns everything
// that is independent of how requests arrive: the transaction-id → Session
// registry, the per-transaction exactly-once replay windows, ownership and
// the disconnection semantics, sweeping of long-terminal transactions, and
// graceful drain. The front end, internal/gateway, owns framing,
// connection lifecycle, and scheduling, and calls Serve for each request.
// Engine methods are safe for concurrent use.
type Engine struct {
	b             Backend
	log           *log.Logger
	invokeTimeout time.Duration
	retention     time.Duration
	dedupWindow   int

	obs         *obs.Registry // nil when observability is off
	replays     *obs.Counter  // nil when observability is off
	drainSleeps *obs.Counter  // nil when observability is off

	baseCtx  context.Context // canceled on Stop/Drain to unblock waits
	baseStop context.CancelFunc

	mu        sync.Mutex
	clients   map[string]Session
	owners    map[string]any // key of the latest Owner driving each tx
	dedups    map[string]*dedupWindow
	stopSweep chan struct{}
	stopped   bool
}

// NewEngine builds an Engine over a Backend.
func NewEngine(b Backend, opts EngineOptions) *Engine {
	lg := opts.Logger
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	retention := opts.Retention
	if retention == 0 {
		retention = 10 * time.Minute
	}
	baseCtx, baseStop := context.WithCancel(context.Background())
	e := &Engine{
		b:             b,
		log:           lg,
		invokeTimeout: opts.InvokeTimeout,
		retention:     retention,
		dedupWindow:   opts.DedupWindow,
		baseCtx:       baseCtx,
		baseStop:      baseStop,
		clients:       make(map[string]Session),
		owners:        make(map[string]any),
		dedups:        make(map[string]*dedupWindow),
	}
	if opts.Obs != nil {
		e.obs = opts.Obs
		e.replays = opts.Obs.Counter(obs.NameWireReplayedResponses,
			"Retried mutating requests answered from the exactly-once window.")
		e.drainSleeps = opts.Obs.Counter(obs.NameDrainSleeping,
			"Live transactions put to sleep by a graceful drain.")
	}
	return e
}

// Backend returns the backend the engine executes against.
func (e *Engine) Backend() Backend { return e.b }

// StartSweep launches the periodic terminal-transaction sweeper (idempotent;
// a no-op when retention is negative or the engine is stopped).
func (e *Engine) StartSweep() {
	if e.retention <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped || e.stopSweep != nil {
		return
	}
	e.stopSweep = make(chan struct{})
	go e.sweepLoop(e.stopSweep)
}

// Stop cancels blocking waits and the sweeper. It does not touch the
// Backend; callers drain or close their front ends around it.
func (e *Engine) Stop() {
	e.mu.Lock()
	e.stopped = true
	if e.stopSweep != nil {
		close(e.stopSweep)
		e.stopSweep = nil
	}
	e.mu.Unlock()
	e.baseStop()
}

// sweepLoop periodically forgets long-terminal transactions.
func (e *Engine) sweepLoop(stop chan struct{}) {
	t := time.NewTicker(e.retention / 4)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			e.Sweep(e.retention)
		}
	}
}

// Sweep forgets every terminal transaction that finished more than
// olderThan ago, freeing its registry entry, client handle and replay
// window. It returns the ids removed.
func (e *Engine) Sweep(olderThan time.Duration) []string {
	removed := e.b.Sweep(olderThan)
	e.mu.Lock()
	// Read-only snapshot sessions never reach the backend's registry, so
	// the backend cannot sweep them: drop the closed ones here.
	for id, c := range e.clients {
		if done, ok := c.(interface{ Done() bool }); ok && done.Done() {
			removed = append(removed, id)
		}
	}
	for _, id := range removed {
		delete(e.clients, id)
		delete(e.owners, id)
		delete(e.dedups, id)
	}
	e.mu.Unlock()
	if len(removed) > 0 {
		e.log.Printf("wire: swept %d terminal transactions", len(removed))
	}
	return removed
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	// Slept is how many live transactions were put to sleep (they survive
	// in the GTM and can be attached + awakened after a restart).
	Slept int
	// CommitsFlushed is false when in-flight commits were still resolving
	// when the drain timeout expired.
	CommitsFlushed bool
}

// Drain performs the backend half of a graceful shutdown: cancel blocking
// invokes/commits so no handler is stuck, put every Active or Waiting
// transaction to sleep (a restarted server's clients re-attach and awaken),
// and wait up to timeout for in-flight commits to resolve. Front ends stop
// accepting before calling it and hang up after.
func (e *Engine) Drain(timeout time.Duration) DrainReport {
	e.Stop()

	slept := e.b.SleepAllLive()
	if e.drainSleeps != nil {
		e.drainSleeps.Add(uint64(len(slept)))
	}
	for _, id := range slept {
		e.log.Printf("wire: drain put %s to sleep", id)
	}

	// Commits past their commit point (SST possibly in flight) must finish
	// before the process exits, or an acknowledged-but-unpublished outcome
	// could be lost.
	deadline := time.Now().Add(timeout)
	flushed := true
	committing, aborting := core.StateCommitting.String(), core.StateAborting.String()
	for {
		busy := false
		for _, ti := range e.b.Transactions() {
			if ti.State == committing || ti.State == aborting {
				busy = true
				break
			}
		}
		if !busy {
			break
		}
		if timeout > 0 && time.Now().After(deadline) {
			flushed = false
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return DrainReport{Slept: len(slept), CommitsFlushed: flushed}
}

// Serve executes one request on behalf of owner, wrapping dispatch with the
// exactly-once replay window: a mutating request carrying a sequence number
// executes at most once per transaction, however many times a reconnecting
// client retries it. A retry that races the original (still executing on
// another owner's handler) waits for the original's outcome instead of
// executing concurrently.
func (e *Engine) Serve(req *Request, owner *Owner) *Response {
	if req.Seq == 0 || req.Tx == "" || !req.Op.Mutating() {
		resp := e.dispatch(req, owner)
		if resp.OK && terminalOp(req.Op) {
			owner.Forget(req.Tx)
		}
		return resp
	}
	e.mu.Lock()
	w := e.dedups[req.Tx]
	if w == nil {
		w = newDedupWindow(e.dedupWindow)
		e.dedups[req.Tx] = w
	}
	e.mu.Unlock()
	entry, fresh, err := w.admit(req.Seq)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	if fresh {
		resp := e.dispatch(req, owner)
		w.finish(entry, resp)
		// A transaction that just reached its terminal outcome will never
		// send another mutating request, so every earlier entry's response
		// is dead weight: collapse the window to the terminal entry alone.
		// (Keeping that one entry is what lets a reconnecting client replay
		// the commit/abort/decide it never got an answer for; the full
		// window is released at Sweep.)
		if resp.OK && terminalOp(req.Op) {
			w.collapse(req.Seq)
			// The owner no longer needs to track the finished transaction:
			// it cannot sleep on disconnect and needs no re-adoption. For a
			// parked gateway session this is what keeps the per-client byte
			// cost flat no matter how many transactions it has run.
			owner.Forget(req.Tx)
		}
		return resp
	}
	select {
	case <-entry.done:
	case <-e.baseCtx.Done():
		return &Response{Err: "wire: server draining"}
	}
	cached := w.response(entry)
	if e.replays != nil {
		e.replays.Inc()
	}
	// Retries arrive on fresh connections: adopt ownership so the
	// disconnection semantics follow the client to its new owner.
	if req.Op == OpBegin {
		e.Adopt(req.Tx, owner)
	}
	replay := *cached
	replay.Replayed = true
	return &replay
}

// terminalOp reports whether a successful request of this kind ends the
// transaction: its dedup window can collapse to the single terminal entry.
func terminalOp(op Op) bool {
	return op == OpCommit || op == OpAbort || op == OpDecide
}

// Adopt registers owner as the latest driver of tx.
func (e *Engine) Adopt(tx string, owner *Owner) {
	owner.remember(tx)
	e.mu.Lock()
	e.owners[tx] = owner.key
	e.mu.Unlock()
}

// DisconnectOwner implements the mobile-disconnection semantics: every
// transaction begun (or attached) by the lost owner that is still Active or
// Waiting goes to sleep and can be attached + awakened later. A transaction
// whose ownership has moved to a newer owner (the client reconnected and
// re-attached before this teardown ran) is left alone — without this check
// the dying owner would put a freshly re-attached transaction back to sleep
// under its new owner.
func (e *Engine) DisconnectOwner(owner *Owner) {
	for _, id := range owner.Owned() {
		e.mu.Lock()
		current, ok := e.owners[id]
		if ok && current != owner.key {
			e.mu.Unlock()
			continue // re-attached elsewhere meanwhile
		}
		delete(e.owners, id)
		e.mu.Unlock()
		st, err := e.b.TxState(id)
		if err != nil {
			// Unknown to the backend: a read-only snapshot session.
			// Snapshots cannot sleep, and an orphaned pin would hold
			// version GC back indefinitely — close it; a reconnecting
			// client re-begins at a fresh pin.
			e.mu.Lock()
			c := e.clients[id]
			e.mu.Unlock()
			if ro, ok := c.(ReadOnlySession); ok && ro.ReadOnly() {
				_ = c.Abort()
				e.log.Printf("wire: owner lost, read-only snapshot %s closed", id)
			}
			continue
		}
		if st == core.StateActive || st == core.StateWaiting {
			if err := e.b.Sleep(id); err == nil {
				e.log.Printf("wire: owner lost, transaction %s now sleeping", id)
			}
		}
	}
}

// client returns the registered session for a transaction.
func (e *Engine) client(tx string) (Session, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.clients[tx]
	if !ok {
		return nil, fmt.Errorf("wire: unknown transaction %q (begin or attach first)", tx)
	}
	return c, nil
}

// Knows reports whether the engine has a session registered for tx.
func (e *Engine) Knows(tx string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.clients[tx]
	return ok
}

// dispatch executes one request.
func (e *Engine) dispatch(req *Request, owner *Owner) *Response {
	fail := func(err error) *Response { return &Response{Err: err.Error()} }
	switch req.Op {
	case OpPing:
		return &Response{OK: true}

	case OpBegin:
		if req.Tx == "" {
			return fail(errors.New("wire: begin needs a tx id"))
		}
		var c Session
		var err error
		if req.ReadOnly {
			sb, ok := e.b.(SnapshotBackend)
			if !ok {
				return fail(errors.New("wire: backend does not support read-only snapshot transactions"))
			}
			if e.Knows(req.Tx) {
				return fail(fmt.Errorf("wire: transaction %q already exists", req.Tx))
			}
			c, err = sb.BeginSnapshot(req.Tx)
		} else {
			c, err = e.b.Begin(req.Tx)
		}
		if err != nil {
			return fail(err)
		}
		e.mu.Lock()
		e.clients[req.Tx] = c
		e.mu.Unlock()
		e.Adopt(req.Tx, owner)
		return &Response{OK: true}

	case OpAttach:
		if !e.Knows(req.Tx) {
			return fail(fmt.Errorf("wire: no transaction %q to attach", req.Tx))
		}
		e.Adopt(req.Tx, owner)
		return &Response{OK: true}

	case OpInvoke:
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		class, err := ParseClass(req.Class)
		if err != nil {
			return fail(err)
		}
		ctx := e.baseCtx
		if e.invokeTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.invokeTimeout)
			defer cancel()
		}
		if err := c.Invoke(ctx, core.ObjectID(req.Object), sem.Op{Class: class, Member: req.Member}); err != nil {
			return fail(err)
		}
		return &Response{OK: true, Granted: true}

	case OpRead:
		if req.ReadOnly && req.Tx == "" {
			// One-shot snapshot read: no transaction, no monitor — pin,
			// read, release, all in this single round trip.
			sb, ok := e.b.(SnapshotBackend)
			if !ok {
				return fail(errors.New("wire: backend does not support snapshot reads"))
			}
			wv, err := sb.SnapshotRead(req.Object, req.Member)
			if err != nil {
				return fail(err)
			}
			return &Response{OK: true, Value: &wv}
		}
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		v, err := c.Read(core.ObjectID(req.Object))
		if err != nil {
			return fail(err)
		}
		wv := FromSem(v)
		return &Response{OK: true, Value: &wv}

	case OpApply:
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		if req.Operand == nil {
			return fail(errors.New("wire: apply needs an operand"))
		}
		operand, err := req.Operand.ToSem()
		if err != nil {
			return fail(err)
		}
		if err := c.Apply(core.ObjectID(req.Object), operand); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpCommit:
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		if err := c.Commit(e.baseCtx); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpAbort:
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		if err := c.Abort(); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpSleep:
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		if err := c.Sleep(); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpAwake:
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		resumed, err := c.Awake()
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Resumed: resumed}

	case OpPrepare:
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		tp, ok := c.(TwoPhaseSession)
		if !ok {
			return fail(errors.New("wire: backend does not support two-phase commit"))
		}
		writes, err := tp.Prepare(e.baseCtx)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Writes: writes}

	case OpDecide:
		c, err := e.client(req.Tx)
		if err != nil {
			return fail(err)
		}
		tp, ok := c.(TwoPhaseSession)
		if !ok {
			return fail(errors.New("wire: backend does not support two-phase commit"))
		}
		if err := tp.Decide(e.baseCtx, req.Decision, req.Writes); err != nil {
			return fail(err)
		}
		return &Response{OK: true}

	case OpReplay:
		rb, ok := e.b.(ReplayBackend)
		if !ok {
			return fail(errors.New("wire: backend does not support decision replay"))
		}
		if req.Marker == nil {
			return fail(errors.New("wire: replay needs a decision marker"))
		}
		applied, err := rb.ReplayDecided(req.Tx, *req.Marker, req.Writes)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Applied: applied}

	case OpShards:
		sb, ok := e.b.(ShardBackend)
		if !ok {
			return fail(errors.New("wire: not a sharded deployment"))
		}
		resp := &Response{OK: true, Shards: sb.Topology()}
		if req.Object != "" {
			idx, err := sb.Route(req.Object)
			if err != nil {
				return fail(err)
			}
			resp.Shard = &idx
		}
		return resp

	case OpState:
		st, err := e.b.TxState(req.Tx)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, State: st.String()}

	case OpObjects:
		return &Response{OK: true, Objects: e.b.Objects()}

	case OpStats:
		resp := &Response{OK: true}
		if !req.ReadOnly {
			// Copying the backend counters enters the GTM monitor; a
			// read_only stats op skips it and returns only the registry
			// snapshot, so measuring monitor freedom does not perturb the
			// measured counter.
			resp.Stats = e.b.Stats()
		}
		if e.obs != nil {
			resp.Metrics = e.obs.Snapshot()
		}
		return resp

	case OpInfo:
		info, err := e.b.ObjectInfo(req.Object)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Info: info}

	case OpTxs:
		return &Response{OK: true, Txs: e.b.Transactions()}

	case OpGwAttach, OpGwDetach:
		// Session control belongs to the front end (internal/gateway
		// intercepts these before Serve).
		return fail(errors.New("wire: not a gateway (gw.attach/gw.detach are front-end ops)"))

	default:
		return fail(fmt.Errorf("wire: unknown op %q", req.Op))
	}
}
