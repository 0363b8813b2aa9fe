package main

import (
	"fmt"
	"time"

	"preserial/internal/core"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// participant adapts one node to shard.Shard for shard.Cluster, method for
// method as shard.LocalShard adapts its stack (minus Kill and Restart,
// which the benchmark never calls).
type participant struct {
	idx     int
	m       *core.Manager
	backend wire.Backend
}

// partSession is a participant's sub-transaction: the manager backend's
// session with its two-phase half.
type partSession struct {
	wire.Session
	wire.TwoPhaseSession
}

func (partSession) Release() {}

func (p *participant) Index() int   { return p.idx }
func (p *participant) Addr() string { return "" }
func (p *participant) Down() bool   { return false }
func (p *participant) Ping() error  { return nil }

func (p *participant) Begin(tx string) (shard.Session, error) {
	sess, err := p.backend.Begin(tx)
	if err != nil {
		return nil, err
	}
	tp, ok := sess.(wire.TwoPhaseSession)
	if !ok {
		return nil, fmt.Errorf("shard %d: backend session lacks two-phase support", p.idx)
	}
	return partSession{Session: sess, TwoPhaseSession: tp}, nil
}

func (p *participant) Decide(tx string, commit bool, extra []wire.SSTWriteJSON) error {
	ws, err := wire.ToCoreWrites(extra)
	if err != nil {
		return err
	}
	return p.m.Decide(core.TxID(tx), commit, ws...)
}

func (p *participant) Replay(tx string, marker wire.SSTWriteJSON, writes []wire.SSTWriteJSON) (bool, error) {
	mk, err := marker.ToCore()
	if err != nil {
		return false, err
	}
	ws, err := wire.ToCoreWrites(writes)
	if err != nil {
		return false, err
	}
	return p.m.ReplayDecided(core.TxID(tx), mk, ws)
}

func (p *participant) TxState(tx string) (core.State, error)  { return p.backend.TxState(tx) }
func (p *participant) Sleep(tx string) error                  { return p.backend.Sleep(tx) }
func (p *participant) Sweep(olderThan time.Duration) []string { return p.backend.Sweep(olderThan) }
func (p *participant) Objects() ([]string, error)             { return p.backend.Objects(), nil }
func (p *participant) Stats() (map[string]uint64, error)      { return p.backend.Stats(), nil }
func (p *participant) Transactions() ([]wire.TxSummaryJSON, error) {
	return p.backend.Transactions(), nil
}
func (p *participant) ObjectInfo(object string) (*wire.ObjectInfoJSON, error) {
	return p.backend.ObjectInfo(object)
}
