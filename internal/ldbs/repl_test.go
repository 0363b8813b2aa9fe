package ldbs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"preserial/internal/obs"
	"preserial/internal/sem"
)

func replTestSchemas() []Schema {
	return []Schema{{
		Table:   "Seats",
		Columns: []ColumnDef{{Name: "Free", Kind: sem.KindInt64}},
		Checks:  []Check{{Column: "Free", Op: CmpGE, Bound: sem.Int(0)}},
	}}
}

// replPair wires a primary (Persistence+ReplSource) to a follower (Replica)
// through in-memory pipes, redialing like the real stack does.
type replPair struct {
	t       *testing.T
	primary *Persistence
	db      *DB
	src     *ReplSource
	rep     *Replica
	stop    chan struct{}
	done    chan struct{}
}

func newReplPair(t *testing.T, srcOpts ReplSourceOptions) *replPair {
	t.Helper()
	primary := &Persistence{Dir: t.TempDir()}
	db, err := primary.Open(replTestSchemas())
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewReplSource(db, srcOpts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(ReplicaOptions{Dir: t.TempDir(), Schemas: replTestSchemas(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	p := &replPair{t: t, primary: primary, db: db, src: src, rep: rep}
	p.connect()
	t.Cleanup(func() {
		p.disconnect()
		p.rep.Close()
		p.src.Close()
		p.primary.Close()
	})
	return p
}

func (p *replPair) connect() {
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	dial := func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go p.src.Serve(c1)
		return c2, nil
	}
	go func() {
		defer close(p.done)
		p.rep.Run(dial, p.stop)
	}()
}

func (p *replPair) disconnect() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

// commitSeat writes Seats/key = free on the primary.
func commitSeat(t *testing.T, db *DB, key string, free int64) {
	t.Helper()
	ctx := context.Background()
	tx := db.Begin()
	if err := tx.Upsert(ctx, "Seats", key, Row{"Free": sem.Int(free)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitSeat polls the follower until Seats/key reads want.
func waitSeat(t *testing.T, db *DB, key string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, err := db.ReadCommitted("Seats", key, "Free"); err == nil && v.Int64() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, err := db.ReadCommitted("Seats", key, "Free")
	t.Fatalf("follower never saw Seats/%s=%d (last: %v, %v)", key, want, v, err)
}

func TestReplStreamShipsCommits(t *testing.T) {
	p := newReplPair(t, ReplSourceOptions{})
	for i := 0; i < 20; i++ {
		commitSeat(t, p.db, fmt.Sprintf("S%d", i), int64(i))
	}
	for i := 0; i < 20; i++ {
		waitSeat(t, p.rep.DB(), fmt.Sprintf("S%d", i), int64(i))
	}
	if got := p.rep.Cursor(); got == 0 {
		t.Fatal("follower cursor never advanced")
	}
}

func TestReplColdFollowerSnapshotCatchUp(t *testing.T) {
	primary := &Persistence{Dir: t.TempDir()}
	db, err := primary.Open(replTestSchemas())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	// Rows exist before the source (and its stream buffer) exists: only a
	// snapshot can deliver them.
	for i := 0; i < 10; i++ {
		commitSeat(t, db, fmt.Sprintf("S%d", i), 7)
	}
	reg := obs.NewRegistry()
	src, err := NewReplSource(db, ReplSourceOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	rep, err := OpenReplica(ReplicaOptions{Dir: t.TempDir(), Schemas: replTestSchemas()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	// Wait for Run to return after stop closes (defers run LIFO), so
	// TempDir cleanup never races the ingest goroutine's file writes.
	done := make(chan struct{})
	defer func() { <-done }()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(done)
		rep.Run(func() (io.ReadWriteCloser, error) {
			c1, c2 := net.Pipe()
			go src.Serve(c1)
			return c2, nil
		}, stop)
	}()
	for i := 0; i < 10; i++ {
		waitSeat(t, rep.DB(), fmt.Sprintf("S%d", i), 7)
	}
	if got := reg.Snapshot()[obs.NameReplResyncs]; got != 1 {
		t.Fatalf("want 1 snapshot resync, got %d", got)
	}
	// Live commits continue past the snapshot edge.
	commitSeat(t, db, "S0", 99)
	waitSeat(t, rep.DB(), "S0", 99)
}

func TestReplSemiSyncCommitWaitsForAck(t *testing.T) {
	p := newReplPair(t, ReplSourceOptions{SemiSync: true, AckTimeout: 5 * time.Second})
	// Arm semi-sync: wait for the follower to attach.
	deadline := time.Now().Add(5 * time.Second)
	for p.src.Status().Followers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never attached")
		}
		time.Sleep(time.Millisecond)
	}
	// Every acked commit must already be applied on the follower.
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("S%d", i)
		commitSeat(t, p.db, key, int64(i))
		if v, err := p.rep.DB().ReadCommitted("Seats", key, "Free"); err != nil || v.Int64() != int64(i) {
			t.Fatalf("semi-sync commit acked before follower applied %s: %v, %v", key, v, err)
		}
	}
	if st := p.src.Status(); st.Degraded {
		t.Fatal("stream degraded under a healthy follower")
	}
}

func TestReplSemiSyncDegradesOnStallThenRearms(t *testing.T) {
	reg := obs.NewRegistry()
	primary := &Persistence{Dir: t.TempDir()}
	db, err := primary.Open(replTestSchemas())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	src, err := NewReplSource(db, ReplSourceOptions{SemiSync: true,
		AckTimeout: 50 * time.Millisecond, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	detach := attachSilentFollower(t, src)

	start := time.Now()
	commitSeat(t, db, "S0", 1)
	if took := time.Since(start); took < 40*time.Millisecond {
		t.Fatalf("semi-sync commit returned in %v; never waited for the ack", took)
	}
	if got := reg.Snapshot()[obs.NameReplSemisyncTimeouts]; got != 1 {
		t.Fatalf("want 1 semisync timeout, got %d", got)
	}
	if !src.Status().Degraded {
		t.Fatal("stream should be degraded after an ack timeout")
	}
	// Degraded: later commits do not wait.
	start = time.Now()
	commitSeat(t, db, "S1", 2)
	if took := time.Since(start); took > 40*time.Millisecond {
		t.Fatalf("degraded commit still waited %v", took)
	}
	detach()
}

// attachSilentFollower attaches a fake follower to src that handshakes and
// reads every frame but never acks. The returned func detaches it.
func attachSilentFollower(t *testing.T, src *ReplSource) (detach func()) {
	t.Helper()
	c1, c2 := net.Pipe()
	go src.Serve(c1)
	if err := writeReplMsg(c2, &replMsg{Kind: replHello}); err != nil {
		t.Fatal(err)
	}
	var m replMsg
	if err := readReplMsg(c2, &m); err != nil {
		t.Fatal(err)
	}
	if m.Kind != replSnap {
		t.Fatalf("want snapshot for cold follower, got %q", m.Kind)
	}
	var drain sync.WaitGroup
	drain.Add(1)
	go func() { // keep the pipe moving so the sender never blocks on write
		defer drain.Done()
		var f replMsg
		for readReplMsg(c2, &f) == nil {
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for src.Status().Followers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fake follower never attached")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		c2.Close()
		drain.Wait()
	}
}

// A semi-sync commit still waiting for its ack when the source closes must
// fail, not pass as replicated: the follower never got it, so a promotion
// would lose a commit the client saw succeed. So must every later commit.
func TestReplSemiSyncCommitFailsWhenSourceCloses(t *testing.T) {
	primary := &Persistence{Dir: t.TempDir()}
	db, err := primary.Open(replTestSchemas())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	src, err := NewReplSource(db, ReplSourceOptions{SemiSync: true, AckTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	defer attachSilentFollower(t, src)()

	commit := func(key string) error {
		tx := db.Begin()
		if err := tx.Upsert(context.Background(), "Seats", key, Row{"Free": sem.Int(1)}); err != nil {
			t.Fatal(err)
		}
		return tx.Commit(context.Background())
	}
	errc := make(chan error, 1)
	go func() { errc <- commit("S0") }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		src.hub.mu.Lock()
		parked := len(src.hub.waiters)
		src.hub.mu.Unlock()
		if parked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("commit never parked for the ack")
		}
		time.Sleep(time.Millisecond)
	}
	src.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, errReplClosed) {
			t.Fatalf("parked commit after Close: err = %v, want errReplClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked commit still blocked after Close")
	}
	if err := commit("S1"); !errors.Is(err, errReplClosed) {
		t.Fatalf("commit after Close: err = %v, want errReplClosed", err)
	}
}

func TestReplFollowerRestartResumesFromCursor(t *testing.T) {
	p := newReplPair(t, ReplSourceOptions{})
	commitSeat(t, p.db, "S0", 5)
	waitSeat(t, p.rep.DB(), "S0", 5)

	// Stop the follower process, write more, then reopen the same dir.
	p.disconnect()
	dir := p.rep.dir
	if err := p.rep.Close(); err != nil {
		t.Fatal(err)
	}
	commitSeat(t, p.db, "S1", 6)

	rep2, err := OpenReplica(ReplicaOptions{Dir: dir, Schemas: replTestSchemas()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if rep2.Cursor() == 0 {
		t.Fatal("reopened follower lost its cursor")
	}
	if v, err := rep2.DB().ReadCommitted("Seats", "S0", "Free"); err != nil || v.Int64() != 5 {
		t.Fatalf("reopened follower lost replicated state: %v, %v", v, err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go rep2.Run(func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go p.src.Serve(c1)
		return c2, nil
	}, stop)
	waitSeat(t, rep2.DB(), "S1", 6)
}

func TestReplPromoteFencesOldPrimary(t *testing.T) {
	p := newReplPair(t, ReplSourceOptions{})
	commitSeat(t, p.db, "S0", 3)
	waitSeat(t, p.rep.DB(), "S0", 3)
	p.disconnect()

	dir := p.rep.dir
	cursor, err := p.rep.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if cursor == 0 {
		t.Fatal("promotion reported a zero cursor")
	}
	epoch, err := ReadReplEpoch(dir)
	if err != nil || epoch != 1 {
		t.Fatalf("promoted epoch = %d, %v; want 1", epoch, err)
	}

	// The promoted directory reopens as a primary with the state intact.
	pers := &Persistence{Dir: dir}
	db2, err := pers.Open(replTestSchemas())
	if err != nil {
		t.Fatal(err)
	}
	defer pers.Close()
	if v, err := db2.ReadCommitted("Seats", "S0", "Free"); err != nil || v.Int64() != 3 {
		t.Fatalf("promoted primary lost state: %v, %v", v, err)
	}

	// The deposed primary's source refuses a peer from the new epoch.
	c1, c2 := net.Pipe()
	defer c2.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.src.Serve(c1) }()
	if err := writeReplMsg(c2, &replMsg{Kind: replHello, Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	var m replMsg
	if err := readReplMsg(c2, &m); err != nil {
		t.Fatal(err)
	}
	if m.Kind != replFence {
		t.Fatalf("want fence from deposed primary, got %q", m.Kind)
	}
	if err := <-serveErr; err == nil {
		t.Fatal("Serve should report the fence")
	}
}

func TestReplFollowerRejectsStaleEpochFrames(t *testing.T) {
	rep, err := OpenReplica(ReplicaOptions{Dir: t.TempDir(), Schemas: replTestSchemas()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rep.mu.Lock()
	rep.epoch = 5 // pretend a promotion happened elsewhere
	rep.mu.Unlock()

	c1, c2 := net.Pipe()
	defer c2.Close()
	stop := make(chan struct{})
	defer close(stop)
	errc := make(chan error, 1)
	go func() { errc <- rep.serveConn(c1, stop) }()

	var hello replMsg
	if err := readReplMsg(c2, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Epoch != 5 {
		t.Fatalf("follower hello epoch = %d, want 5", hello.Epoch)
	}
	// Accept the resume, then ship frames stamped with an older epoch.
	if err := writeReplMsg(c2, &replMsg{Kind: replHello, StreamID: hello.StreamID, Epoch: 5, LSN: hello.LSN}); err != nil {
		t.Fatal(err)
	}
	var ack replMsg
	if err := readReplMsg(c2, &ack); err != nil {
		t.Fatal(err)
	}
	if err := writeReplMsg(c2, &replMsg{Kind: replFrames, Epoch: 4, LSN: 10,
		Data: frameRecord(walRecord{Type: recBegin, TxID: 1})}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("follower accepted frames from a stale epoch")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never rejected the stale frames")
	}
}
