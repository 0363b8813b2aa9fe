package core

import (
	"context"
	"fmt"
	"sync"

	"preserial/internal/sem"
)

// Client is a synchronous façade over one transaction: the Manager's
// event-driven API (Invoke may queue, RequestCommit completes
// asynchronously) is turned into blocking calls with context cancellation.
// The middleware server and the examples use Clients; the discrete-event
// simulator talks to the Manager directly.
//
// A Client is not safe for concurrent use (same contract as a database
// transaction handle).
type Client struct {
	m  *Manager
	id TxID

	mu     sync.Mutex
	wake   chan struct{} // signaled on every delivered event
	events []Event
}

// BeginClient begins a transaction and returns its synchronous handle.
func (m *Manager) BeginClient(id TxID, opt ...TxOption) (*Client, error) {
	c := &Client{m: m, id: id, wake: make(chan struct{}, 1)}
	opt = append(opt, WithNotify(c.deliver))
	if err := m.Begin(id, opt...); err != nil {
		return nil, err
	}
	return c, nil
}

// ID returns the transaction id.
func (c *Client) ID() TxID { return c.id }

// deliver queues an event and signals any waiter.
func (c *Client) deliver(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// waitFor blocks until an event satisfying match arrives, returning it. An
// EvAborted event satisfies every wait (the transaction is gone). Once the
// Manager is closed no further event can arrive, so the wait fails with
// ErrManagerClosed.
func (c *Client) waitFor(ctx context.Context, match func(Event) bool) (Event, error) {
	closed := false
	for {
		c.mu.Lock()
		for i, ev := range c.events {
			if match(ev) || ev.Type == EvAborted {
				c.events = append(c.events[:i], c.events[i+1:]...)
				c.mu.Unlock()
				return ev, nil
			}
		}
		c.mu.Unlock()
		if closed {
			return Event{}, ErrManagerClosed
		}
		select {
		case <-c.wake:
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-c.m.closed:
			closed = true // one last scan: the outcome may already be queued
		}
	}
}

// Invoke requests op on obj and blocks until granted. If the transaction is
// aborted while queued (e.g. an awakening conflict), the abort is returned
// as an error.
func (c *Client) Invoke(ctx context.Context, obj ObjectID, op sem.Op) error {
	granted, err := c.m.Invoke(c.id, obj, op)
	if err != nil {
		return err
	}
	if granted {
		return nil
	}
	ev, err := c.waitFor(ctx, func(ev Event) bool {
		return ev.Type == EvGranted && ev.Object == obj
	})
	if err != nil {
		return err
	}
	if ev.Type == EvAborted {
		return abortError(ev)
	}
	return nil
}

// Read returns the transaction's virtual value of obj.
func (c *Client) Read(obj ObjectID) (sem.Value, error) {
	return c.m.ReadValue(c.id, obj)
}

// Apply performs one operation of the invoked class on the virtual copy.
func (c *Client) Apply(obj ObjectID, operand sem.Value) error {
	return c.m.Apply(c.id, obj, operand)
}

// Commit requests the commit and blocks until the global commit (or the
// abort that replaced it) finishes.
func (c *Client) Commit(ctx context.Context) error {
	if err := c.m.RequestCommit(c.id); err != nil {
		return err
	}
	ev, err := c.waitFor(ctx, func(ev Event) bool { return ev.Type == EvCommitted })
	if err != nil {
		return err
	}
	if ev.Type == EvAborted {
		return abortError(ev)
	}
	return nil
}

// Prepare runs the cross-shard prepare: the full local commit pipeline up
// to (but excluding) the SST, blocking until the write set is staged. It
// returns the staged SST writes for the coordinator to log. After a nil
// return the transaction is in doubt and must be settled with Decide.
func (c *Client) Prepare(ctx context.Context) ([]SSTWrite, error) {
	if err := c.m.PrepareCommit(c.id); err != nil {
		return nil, err
	}
	ev, err := c.waitFor(ctx, func(ev Event) bool { return ev.Type == EvPrepared })
	if err != nil {
		return nil, err
	}
	if ev.Type == EvAborted {
		return nil, abortError(ev)
	}
	return c.m.StagedWrites(c.id)
}

// Decide settles a prepared transaction with the coordinator's verdict and
// blocks until the outcome (commit published, or abort finalized) lands.
// extra writes are appended to the staged SST — the coordinator's decision
// marker travels this way.
func (c *Client) Decide(ctx context.Context, commit bool, extra ...SSTWrite) error {
	if err := c.m.Decide(c.id, commit, extra...); err != nil {
		return err
	}
	if !commit {
		_, err := c.waitFor(ctx, func(ev Event) bool { return ev.Type == EvAborted })
		return err
	}
	ev, err := c.waitFor(ctx, func(ev Event) bool { return ev.Type == EvCommitted })
	if err != nil {
		return err
	}
	if ev.Type == EvAborted {
		return abortError(ev)
	}
	return nil
}

// Abort aborts the transaction.
func (c *Client) Abort() error { return c.m.Abort(c.id) }

// Sleep parks the transaction (disconnection / user inactivity).
func (c *Client) Sleep() error { return c.m.Sleep(c.id) }

// Awake resumes the transaction; resumed=false means it was aborted because
// an incompatible operation intervened during the sleep.
func (c *Client) Awake() (resumed bool, err error) { return c.m.Awake(c.id) }

// State returns the transaction's current state.
func (c *Client) State() (State, error) { return c.m.TxState(c.id) }

// abortError converts an EvAborted event into an error.
func abortError(ev Event) error {
	if ev.Err != nil {
		return fmt.Errorf("core: transaction %s aborted (%s): %w", ev.Tx, ev.Reason, ev.Err)
	}
	return fmt.Errorf("core: transaction %s aborted (%s)", ev.Tx, ev.Reason)
}
