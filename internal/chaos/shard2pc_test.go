package chaos

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"preserial/internal/core"
	"preserial/internal/ldbs"
	"preserial/internal/sem"
	"preserial/internal/shard"
)

// Cross-shard 2PC under participant crashes. A transfer moves one seat
// between objects on different shards (−1 here, +1 there), so the total
// across the cluster is an invariant: any one-sided commit — a prepare
// applied without its decision, a decision applied on one participant
// only — shows up as a changed sum. The shard is killed at each 2PC
// window in turn, restarted from its WAL, and the coordinator's
// ResolveInDoubt must finish the story.

const (
	shard2pcKeysPerShard = 2
	shard2pcSeats        = int64(100)
)

// shard2pcCluster is a two-shard cluster plus the raw pieces the oracle
// needs (shard DBs for committed reads, keys by shard).
type shard2pcCluster struct {
	cl     *shard.Cluster
	shards []*shard.LocalShard
	keys   [][]string // keys[i] lives on shard i
	total  int64
}

// newShard2PCCluster builds two durable LocalShards holding
// shard2pcKeysPerShard seat objects each and a coordinator with a decision
// log, all under t.TempDir.
func newShard2PCCluster(t *testing.T) *shard2pcCluster {
	t.Helper()
	const n = 2
	ring := shard.NewRing(n)
	keys := make([][]string, n)
	for i := 0; len(keys[0]) < shard2pcKeysPerShard || len(keys[1]) < shard2pcKeysPerShard; i++ {
		if i > 10000 {
			t.Fatal("ring never produced enough keys per shard")
		}
		key := fmt.Sprintf("S%d", i)
		idx := ring.Route("Seats/" + key)
		if len(keys[idx]) < shard2pcKeysPerShard {
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
					continue // survived recovery
				}
				if err := tx.Insert(ctx, "Seats", key, ldbs.Row{"Free": sem.Int(shard2pcSeats)}); err != nil {
					tx.Rollback()
					return err
				}
			}
			return tx.Commit(ctx)
		}
	}

	c := &shard2pcCluster{keys: keys, total: int64(n*shard2pcKeysPerShard) * shard2pcSeats}
	members := make([]shard.Shard, n)
	for i := 0; i < n; i++ {
		objs := make(map[string]core.StoreRef, len(keys[i]))
		for _, key := range keys[i] {
			objs["Seats/"+key] = core.StoreRef{Table: "Seats", Key: key, Column: "Free"}
		}
		s, err := shard.OpenLocal(shard.LocalConfig{
			Index:   i,
			Dir:     t.TempDir(),
			Schemas: []ldbs.Schema{schema},
			Seed:    seeder(keys[i]),
			Objects: objs,
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
	return c
}

// transfer moves one seat from src to dst through the cluster.
func (c *shard2pcCluster) transfer(tx, src, dst string) error {
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

// sumSeats reads every seat row's committed value straight from the shard
// databases — the conservation oracle's view.
func (c *shard2pcCluster) sumSeats(t *testing.T) int64 {
	t.Helper()
	var sum int64
	for i, shardKeys := range c.keys {
		for _, key := range shardKeys {
			v, err := c.shards[i].DB().ReadCommitted("Seats", key, "Free")
			if err != nil {
				t.Fatalf("read %s on shard %d: %v", key, i, err)
			}
			sum += v.Int64()
		}
	}
	return sum
}

// crossTransfers drives n concurrent transfers in both directions (shard 0
// → shard 1 and back) and reports how many committed. Errors are expected
// while a shard is down; one-sidedness, not failure, is the defect.
func (c *shard2pcCluster) crossTransfers(t *testing.T, prefix string, n int) int {
	t.Helper()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed int
	)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := c.keys[i%2][i%shard2pcKeysPerShard]
			dst := c.keys[(i+1)%2][(i/2)%shard2pcKeysPerShard]
			if err := c.transfer(fmt.Sprintf("%s-%d", prefix, i), src, dst); err == nil {
				mu.Lock()
				committed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return committed
}

// TestShardKillMid2PCConservation kills participant 1 at each window of a
// cross-shard commit — before prepare, after every prepare succeeded, and
// after the coordinator logged its decision — then restarts it, resolves
// in-doubt state, and checks the cluster-wide seat total each time.
func TestShardKillMid2PCConservation(t *testing.T) {
	checkGoroutineLeaks(t)
	c := newShard2PCCluster(t)
	victim := c.shards[1]

	// Warm-up: concurrent healthy traffic in both directions.
	if n := c.crossTransfers(t, "warm", 8); n != 8 {
		t.Fatalf("healthy transfers: %d/8 committed", n)
	}
	if got := c.sumSeats(t); got != c.total {
		t.Fatalf("after warm-up: seat total %d, want %d", got, c.total)
	}

	// Window 1: participant already down at prepare. The commit must fail
	// as a unit — shard 0's leg may have prepared, but presumed abort
	// takes it back.
	victim.Kill()
	if err := c.transfer("kill-prepare", c.keys[0][0], c.keys[1][0]); err == nil {
		t.Fatal("transfer committed with participant 1 down")
	}
	if err := victim.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := c.sumSeats(t); got != c.total {
		t.Fatalf("after prepare-window kill: seat total %d, want %d", got, c.total)
	}

	// Window 2: die after every participant prepared, before the decision
	// hits the log. The decision still commits (the log write is the
	// commit point and the coordinator survives); the dead participant is
	// left lagging for ResolveInDoubt.
	// Window 3: die after the logged decision, same resolution path.
	for _, win := range []struct {
		name string
		arm  func(fire func(tx string))
	}{
		{"after-prepare", func(f func(string)) { c.cl.HookAfterPrepare = f }},
		{"after-log", func(f func(string)) { c.cl.HookAfterLog = f }},
	} {
		tx := "kill-" + win.name
		var once sync.Once
		win.arm(func(fired string) {
			if fired == tx {
				once.Do(victim.Kill)
			}
		})
		if err := c.transfer(tx, c.keys[0][0], c.keys[1][0]); err != nil {
			t.Fatalf("%s: commit reported %v, want success past the commit point", win.name, err)
		}
		win.arm(nil)
		if pending := c.cl.InDoubt(); len(pending) != 1 || pending[0] != tx {
			t.Fatalf("%s: in-doubt = %v, want [%s]", win.name, pending, tx)
		}
		if err := victim.Restart(); err != nil {
			t.Fatalf("%s: restart: %v", win.name, err)
		}
		resolved, err := c.cl.ResolveInDoubt()
		if err != nil {
			t.Fatalf("%s: resolve: %v", win.name, err)
		}
		if resolved != 1 {
			t.Fatalf("%s: resolved %d transactions, want 1", win.name, resolved)
		}
		if got := c.sumSeats(t); got != c.total {
			t.Fatalf("after %s kill: seat total %d, want %d", win.name, got, c.total)
		}
	}

	// The cluster keeps working after the whole ordeal.
	if n := c.crossTransfers(t, "cool", 8); n != 8 {
		t.Fatalf("post-recovery transfers: %d/8 committed", n)
	}
	if got := c.sumSeats(t); got != c.total {
		t.Fatalf("final seat total %d, want %d", got, c.total)
	}
}
