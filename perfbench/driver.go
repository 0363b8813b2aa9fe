package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"preserial/internal/core"
	"preserial/internal/gateway"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// session is one logical mobile client: a gateway session multiplexed
// over a shared connection. With a tracer every client call is recorded
// as a "gateway.<op>" span.
type session struct {
	id  string
	mux *gateway.MuxConn
	sc  *gateway.SessionClient
	tr  *tracer
	n   int // transactions begun, for unique ids

	rec *recorder
}

// rpc times one client call into the gateway.
func (s *session) rpc(op, trace string, parent uint64, fn func() error) error {
	return s.tr.do("gateway."+op, trace, parent, fn)
}

// attach creates the session on its connection.
func (s *session) attach() error {
	return s.rpc("attach", s.id, 0, func() (err error) {
		s.sc, _, err = s.mux.Session(s.id, "")
		return err
	})
}

// detach parks the session (used at the end of a traced run).
func (s *session) detach() error {
	return s.rpc("detach", s.id, 0, func() error { return s.mux.Detach(s.id) })
}

// phase says where a task's timings go.
type phase uint8

const (
	phaseWarm phase = iota
	phaseOpen
	phaseClosed
)

// committed is one acknowledged transaction, for the oracle.
type committed struct {
	tx  string
	ops []opSpec
}

// readObs is one observed read, for the oracle.
type readObs struct {
	obj int
	val int64
}

// recorder collects one session's outcomes. Each session owns one, so it
// needs no lock; the run merges them after the phases end.
type recorder struct {
	txnOpen, commitOpen, readOpen []sample  // ms, at the task's start (its due time) into the open phase
	txnClosed, readClosed         []sample  // ms, at the task's end into the closed phase
	closedDone                    []float64 // seconds into the closed phase at which each successful task ended

	attempted, txns, aborts, errs int
	abortsBy                      map[string]int
	firstErr                      error

	acked []committed
	reads []readObs
}

func newRecorder() *recorder { return &recorder{abortsBy: make(map[string]int)} }

func (r *recorder) merge(o *recorder) {
	r.txnOpen = append(r.txnOpen, o.txnOpen...)
	r.commitOpen = append(r.commitOpen, o.commitOpen...)
	r.readOpen = append(r.readOpen, o.readOpen...)
	r.txnClosed = append(r.txnClosed, o.txnClosed...)
	r.readClosed = append(r.readClosed, o.readClosed...)
	r.closedDone = append(r.closedDone, o.closedDone...)
	r.attempted += o.attempted
	r.txns += o.txns
	r.aborts += o.aborts
	r.errs += o.errs
	for k, v := range o.abortsBy {
		r.abortsBy[k] += v
	}
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.acked = append(r.acked, o.acked...)
	r.reads = append(r.reads, o.reads...)
}

// abortCause classifies a failed call: an abort by the GTM (with its
// reason), a wait the GTM refused because it would deadlock, an invoke
// timeout at the gateway, or neither (""). alive reports that the
// transaction is still live in the GTM, so the client must abort it.
func abortCause(err error) (cause string, alive bool) {
	msg := err.Error()
	if i := strings.Index(msg, "aborted ("); i >= 0 {
		rest := msg[i+len("aborted ("):]
		if j := strings.IndexByte(rest, ')'); j >= 0 {
			return rest[:j], false
		}
	}
	switch {
	case strings.Contains(msg, core.ErrDeadlock.Error()):
		return core.AbortDeadlock.String(), true
	case strings.Contains(msg, context.DeadlineExceeded.Error()):
		return core.AbortTimeout.String(), true
	}
	return "", false
}

// runner executes tasks against one stack for one workload.
type runner struct {
	w           *workload
	objs        []objSpec
	openStart   time.Time // start of the open phase, set before it runs
	closedStart time.Time // start of the closed phase, set before it runs
}

// openAt and closedAt are t's offsets into the open and closed phase in
// seconds.
func (rn *runner) openAt(t time.Time) float64   { return t.Sub(rn.openStart).Seconds() }
func (rn *runner) closedAt(t time.Time) float64 { return t.Sub(rn.closedStart).Seconds() }

// run executes one task on s. sched is when its latency starts: its due
// time in the open phase (less the generator's timer overshoot), its start
// in a closed loop; deadline bounds the closed window.
func (rn *runner) run(s *session, t task, ph phase, sched, deadline time.Time) {
	r := s.rec
	r.attempted++
	if t.kind == kindRead {
		rn.read(s, t, ph, sched, deadline)
		return
	}
	r.txns++
	s.n++
	tx := fmt.Sprintf("%s-%d", s.id, s.n)
	root, rootStart := s.tr.start()
	var paused, commitDur time.Duration
	err := rn.txn(s, t, tx, root, &paused, &commitDur)
	end := time.Now()
	s.tr.end(root, rootStart, "task.txn", tx, 0)
	if err != nil {
		rn.fail(s, tx, err)
		return
	}
	r.acked = append(r.acked, committed{tx: tx, ops: t.ops})
	lat := ms(end.Sub(sched) - paused)
	switch ph {
	case phaseOpen:
		at := rn.openAt(sched)
		r.txnOpen = append(r.txnOpen, sample{at, lat})
		r.commitOpen = append(r.commitOpen, sample{at, ms(commitDur)})
	case phaseClosed:
		if end.Before(deadline) {
			at := rn.closedAt(end)
			r.txnClosed = append(r.txnClosed, sample{at, lat})
			r.closedDone = append(r.closedDone, at)
		}
	}
}

// txn drives one booking through the gateway.
func (rn *runner) txn(s *session, t task, tx string, root uint64, paused, commitDur *time.Duration) error {
	if err := s.rpc("begin", tx, root, func() error { return s.sc.Begin(tx) }); err != nil {
		return err
	}
	for _, op := range t.ops {
		obj := rn.objs[op.obj].id
		if err := s.rpc("invoke", tx, root, func() error { return s.sc.Invoke(tx, obj, op.class, "") }); err != nil {
			return err
		}
		if err := s.rpc("apply", tx, root, func() error { return s.sc.Apply(tx, obj, sem.Int(op.operand)) }); err != nil {
			return err
		}
	}
	if t.disconnect {
		if err := s.rpc("detach", tx, root, func() error { return s.mux.Detach(s.id) }); err != nil {
			return err
		}
		start := time.Now()
		time.Sleep(rn.w.pause)
		*paused = time.Since(start)
		if err := s.rpc("attach", tx, root, func() error { _, _, err := s.mux.Attach(s.id, ""); return err }); err != nil {
			return err
		}
		var resumed bool
		if err := s.rpc("awake", tx, root, func() (err error) { resumed, err = s.sc.Awake(tx); return err }); err != nil {
			return err
		}
		if !resumed {
			return fmt.Errorf("core: transaction %s aborted (%s)", tx, core.AbortSleepConflict)
		}
	}
	start := time.Now()
	err := s.rpc("commit", tx, root, func() error { return s.sc.Commit(tx) })
	*commitDur = time.Since(start)
	return err
}

// read performs one read task.
func (rn *runner) read(s *session, t task, ph phase, sched, deadline time.Time) {
	r := s.rec
	o := rn.objs[t.obj]
	var v int64
	err := s.rpc("read", o.id, 0, func() error {
		resp, err := s.mux.Call(&wire.Request{Op: wire.OpRead, ReadOnly: true, Session: s.id, Object: o.id})
		if err != nil {
			return err
		}
		if resp.Value == nil {
			return errors.New("snapshot read returned no value")
		}
		v = resp.Value.Int
		return nil
	})
	end := time.Now()
	if err != nil {
		rn.fail(s, "", err)
		return
	}
	r.reads = append(r.reads, readObs{obj: t.obj, val: v})
	lat := ms(end.Sub(sched))
	switch ph {
	case phaseOpen:
		r.readOpen = append(r.readOpen, sample{rn.openAt(sched), lat})
	case phaseClosed:
		if end.Before(deadline) {
			at := rn.closedAt(end)
			r.readClosed = append(r.readClosed, sample{at, lat})
			r.closedDone = append(r.closedDone, at)
		}
	}
}

// fail records a failed task: an abort (the GTM's decision, counted by
// cause) or an error (anything else, which fails the run).
func (rn *runner) fail(s *session, tx string, err error) {
	r := s.rec
	cause, alive := abortCause(err)
	if cause == "" {
		r.errs++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s %s: %w", s.id, tx, err)
		}
		return
	}
	r.aborts++
	r.abortsBy[cause]++
	if alive && tx != "" {
		if err := s.rpc("abort", tx, 0, func() error { return s.sc.Abort(tx) }); err != nil {
			r.errs++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("%s abort %s: %w", s.id, tx, err)
			}
		}
	}
}

// closedLoop runs every session in a closed loop for d: each sends its
// next task when the previous one finishes.
func (rn *runner) closedLoop(sessions []*session, seed int64, ph phase, d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
			for time.Now().Before(deadline) {
				rn.run(s, rn.w.gen(r), ph, time.Now(), deadline)
			}
		}(i, s)
	}
	wg.Wait()
}

// openStats describes how well the open-phase generator kept its schedule.
type openStats struct {
	late        []float64 // ms between an arrival's due time and its dispatch
	inflightMax int
}

// openLoop dispatches the pre-generated arrivals on schedule, each to an
// idle session; if none is idle the generator waits, and the wait counts
// in the task's latency because tasks are timed from their due time (less
// the generator's own timer overshoot).
func (rn *runner) openLoop(sessions []*session, arrivals []arrival) openStats {
	idle := make(chan *session, len(sessions))
	for _, s := range sessions {
		idle <- s
	}
	var st openStats
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	rn.openStart = start
	far := start.Add(24 * time.Hour)
	for _, a := range arrivals {
		due := start.Add(a.at)
		// A task is timed from its due time, less the sleep's overshoot:
		// an idle Go process on Linux wakes a timer up to a millisecond
		// late (median 0.37 ms on the 2-vCPU reference VM), which is the
		// harness's error, not the program's. A generator that did not
		// sleep was held up by the program (no idle session), so its
		// tasks keep their due time.
		sched := due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			sched = time.Now()
		}
		s := <-idle
		st.late = append(st.late, ms(time.Since(due)))
		if n := int(inflight.Add(1)); n > st.inflightMax {
			st.inflightMax = n
		}
		wg.Add(1)
		go func(s *session, t task, sched time.Time) {
			defer wg.Done()
			rn.run(s, t, phaseOpen, sched, far)
			inflight.Add(-1)
			idle <- s
		}(s, a.t, sched)
	}
	wg.Wait()
	return st
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
