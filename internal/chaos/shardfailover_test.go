package chaos

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
	"preserial/internal/shard"
	"preserial/internal/wire"
)

// Kill-and-promote under load. Each shard is a primary/follower pair with
// WAL shipping; the failure detector notices the killed primary and
// promotes the follower at its acked LSN. Three things must survive the
// failover: the cluster-wide seat total (every transfer is −1/+1, so the
// sum is an invariant), transactions that went to sleep before the crash
// (their journal rows replicated to the follower and are reconstructed on
// the promoted stack), and a cross-shard commit whose decision was logged
// but never applied on the dead participant (in-doubt, resolved to the
// logged decision exactly once).

const (
	failoverKeysPerShard = 2
	failoverSeats        = int64(100)
	failoverSleepers     = 3
)

// failoverCluster mirrors shard2pcCluster with replicated pairs.
type failoverCluster struct {
	cl     *shard.Cluster
	shards []*shard.ReplicaShard
	keys   [][]string
	total  int64
}

func newFailoverCluster(t *testing.T) *failoverCluster {
	t.Helper()
	const n = 2
	ring := shard.NewRing(n)
	keys := make([][]string, n)
	for i := 0; len(keys[0]) < failoverKeysPerShard || len(keys[1]) < failoverKeysPerShard; i++ {
		if i > 10000 {
			t.Fatal("ring never produced enough keys per shard")
		}
		key := fmt.Sprintf("S%d", i)
		idx := ring.Route("Seats/" + key)
		if len(keys[idx]) < failoverKeysPerShard {
			keys[idx] = append(keys[idx], key)
		}
	}

	schema := ldbs.Schema{
		Table:   "Seats",
		Columns: []ldbs.ColumnDef{{Name: "Free", Kind: sem.KindInt64}},
		Checks:  []ldbs.Check{{Column: "Free", Op: ldbs.CmpGE, Bound: sem.Int(0)}},
	}
	seeder := func(owned []string) func(db *ldbs.DB) error {
		return func(db *ldbs.DB) error {
			ctx := context.Background()
			tx := db.Begin()
			for _, key := range owned {
				if _, err := db.ReadCommitted("Seats", key, "Free"); err == nil {
					continue
				}
				if err := tx.Insert(ctx, "Seats", key, ldbs.Row{"Free": sem.Int(failoverSeats)}); err != nil {
					tx.Rollback()
					return err
				}
			}
			return tx.Commit(ctx)
		}
	}

	c := &failoverCluster{keys: keys, total: int64(n*failoverKeysPerShard) * failoverSeats}
	members := make([]shard.Shard, n)
	for i := 0; i < n; i++ {
		objs := make(map[string]core.StoreRef, len(keys[i]))
		for _, key := range keys[i] {
			objs["Seats/"+key] = core.StoreRef{Table: "Seats", Key: key, Column: "Free"}
		}
		s, err := shard.OpenReplicaShard(shard.ReplicaConfig{
			Local: shard.LocalConfig{
				Index:   i,
				Dir:     t.TempDir(),
				Schemas: []ldbs.Schema{schema},
				Seed:    seeder(keys[i]),
				Objects: objs,
			},
			FollowerDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		c.shards = append(c.shards, s)
		members[i] = s
	}
	cl, err := shard.NewCluster(shard.Config{
		Shards:       members,
		CoordLogPath: filepath.Join(t.TempDir(), "coord.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	c.cl = cl

	// Semi-sync only gates once the follower is attached; the failover
	// guarantees below depend on it.
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range c.shards {
		for {
			info, _ := s.ReplicaInfo()
			if info.Followers > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d: follower never attached", s.Index())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return c
}

func (c *failoverCluster) transfer(tx, src, dst string) error {
	ctx := context.Background()
	sess, err := c.cl.Begin(tx)
	if err != nil {
		return err
	}
	for _, leg := range []struct {
		key   string
		delta int64
	}{{src, -1}, {dst, +1}} {
		obj := core.ObjectID("Seats/" + leg.key)
		if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
			_ = sess.Abort()
			return err
		}
		if err := sess.Apply(obj, sem.Int(leg.delta)); err != nil {
			_ = sess.Abort()
			return err
		}
	}
	return sess.Commit(ctx)
}

func (c *failoverCluster) sumSeats(t *testing.T) int64 {
	t.Helper()
	var sum int64
	for i, shardKeys := range c.keys {
		for _, key := range shardKeys {
			db := c.shards[i].DB()
			if db == nil {
				t.Fatalf("shard %d has no live database", i)
			}
			v, err := db.ReadCommitted("Seats", key, "Free")
			if err != nil {
				t.Fatalf("read %s on shard %d: %v", key, i, err)
			}
			sum += v.Int64()
		}
	}
	return sum
}

// TestShardKillAndPromoteConservation kills shard 1's primary at the
// post-decision-log window of a cross-shard commit while concurrent
// transfer load is running, lets the failure detector promote the
// follower, and then checks the full robustness story: the seat total is
// conserved, the in-doubt commit resolves to its logged decision exactly
// once, and transactions asleep across the crash wake up on the promoted
// stack and commit their journaled work.
func TestShardKillAndPromoteConservation(t *testing.T) {
	checkGoroutineLeaks(t)
	c := newFailoverCluster(t)
	victim := c.shards[1]

	stop := c.cl.StartFailureDetector(shard.FailoverConfig{
		Interval: 10 * time.Millisecond,
		Misses:   2,
		Promote:  true,
	})
	defer stop()

	// Put sleepers to bed before the crash: each holds a tentative −1/+1
	// pair spanning both shards. Their effects live only in manager memory
	// plus the replicated sleep journal, so the committed sum is untouched
	// until they wake and commit.
	ctx := context.Background()
	sleepers := make([]wire.Session, failoverSleepers)
	for i := range sleepers {
		sess, err := c.cl.Begin(fmt.Sprintf("dreamer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, leg := range []struct {
			key   string
			delta int64
		}{{c.keys[1][i%failoverKeysPerShard], -1}, {c.keys[0][i%failoverKeysPerShard], +1}} {
			obj := core.ObjectID("Seats/" + leg.key)
			if err := sess.Invoke(ctx, obj, sem.Op{Class: sem.AddSub}); err != nil {
				t.Fatal(err)
			}
			if err := sess.Apply(obj, sem.Int(leg.delta)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Sleep(); err != nil {
			t.Fatal(err)
		}
		sleepers[i] = sess
	}

	// Concurrent cross-shard load; one designated transaction kills the
	// victim right after the coordinator logs its commit decision, leaving
	// that commit in-doubt on the dead participant.
	const loadTxs = 16
	killTx := "load-5"
	var killOnce sync.Once
	c.cl.HookAfterLog = func(tx string) {
		if tx == killTx {
			killOnce.Do(victim.Kill)
		}
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed = map[string]bool{}
	)
	for i := 0; i < loadTxs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := c.keys[i%2][i%failoverKeysPerShard]
			dst := c.keys[(i+1)%2][(i/2)%failoverKeysPerShard]
			tx := fmt.Sprintf("load-%d", i)
			if err := c.transfer(tx, src, dst); err == nil {
				mu.Lock()
				committed[tx] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	c.cl.HookAfterLog = nil
	if !committed[killTx] {
		t.Fatalf("%s: commit reported failure, want success past the logged decision", killTx)
	}

	// The failure detector must promote the follower on its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, _ := victim.ReplicaInfo()
		if info.Role == shard.RolePromoted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failure detector never promoted the follower")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain in-doubt state onto the promoted stack; the logged decision is
	// the truth, applied exactly once.
	if _, err := c.cl.ResolveInDoubt(); err != nil {
		t.Fatalf("ResolveInDoubt after promotion: %v", err)
	}
	if pending := c.cl.InDoubt(); len(pending) != 0 {
		t.Fatalf("in-doubt after resolution: %v", pending)
	}
	if got := c.sumSeats(t); got != c.total {
		t.Fatalf("seat total %d after failover, want %d", got, c.total)
	}
	if _, err := c.cl.ResolveInDoubt(); err != nil {
		t.Fatal(err)
	}
	if got := c.sumSeats(t); got != c.total {
		t.Fatalf("seat total %d after second resolve — double apply", got)
	}

	// Every sleeper wakes on the promoted stack and commits its journaled
	// tentative work; each commit is −1/+1 so the sum stays put.
	for i, sess := range sleepers {
		resumed, err := sess.Awake()
		if err != nil || !resumed {
			t.Fatalf("dreamer-%d: Awake after failover = %v, %v", i, resumed, err)
		}
		if err := sess.Commit(ctx); err != nil {
			t.Fatalf("dreamer-%d: commit after failover: %v", i, err)
		}
	}
	if got := c.sumSeats(t); got != c.total {
		t.Fatalf("seat total %d after sleepers committed, want %d", got, c.total)
	}

	// The cluster keeps taking traffic on the promoted pair.
	for i := 0; i < 4; i++ {
		tx := fmt.Sprintf("cool-%d", i)
		if err := c.transfer(tx, c.keys[i%2][0], c.keys[(i+1)%2][0]); err != nil {
			t.Fatalf("%s: post-failover transfer: %v", tx, err)
		}
	}
	if got := c.sumSeats(t); got != c.total {
		t.Fatalf("final seat total %d, want %d", got, c.total)
	}
}
