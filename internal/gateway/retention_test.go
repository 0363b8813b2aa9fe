package gateway

import (
	"net"
	"sync"
	"testing"
	"time"

	"preserial/internal/core"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// fakeClock is a deterministic clock for retention tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// newClockedGateway builds a server on a fake clock without starting Serve:
// attach/detach/ExpireParked are exercised directly, so the whole test is
// clock-deterministic.
func newClockedGateway(t *testing.T) (*Server, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	st := core.NewMemStore()
	st.Seed(core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}, sem.Int(50))
	m := core.NewManager(st)
	t.Cleanup(m.Close)
	if err := m.RegisterAtomicObject("flight", core.StoreRef{Table: "Flight", Key: "AZ123", Column: "FreeTickets"}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(wire.NewManagerBackend(m), Options{Now: clk.Now})
	return s, clk
}

// testConn fabricates a gwConn over a net.Pipe so attach/detach can run
// without a listener. Responses written to it are drained by a goroutine.
func testConn(t *testing.T, s *Server) *gwConn {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	go func() { // drain anything writeResp emits
		buf := make([]byte, 1024)
		for {
			if _, err := client.Read(buf); err != nil {
				return
			}
		}
	}()
	return &gwConn{s: s, c: server, plain: wire.NewOwner(server), bound: make(map[string]*session)}
}

func attachOK(t *testing.T, s *Server, c *gwConn, id string) *wire.Response {
	t.Helper()
	resp := s.attach(c, &wire.Request{Op: wire.OpGwAttach, Session: id})
	if !resp.OK {
		t.Fatalf("attach %q: %s", id, resp.Err)
	}
	return resp
}

// TestParkedBytesExactAcrossOwnedSetChange is the regression test for the
// parked-bytes drift: the session's owned set shrinks while it is parked
// (the engine forgetting a terminal transaction), and the resume/reap credit
// must equal the park-time charge. Pre-fix both credits recomputed the
// footprint at credit time and leaked the difference into the gauge forever.
func TestParkedBytesExactAcrossOwnedSetChange(t *testing.T) {
	s, clk := newClockedGateway(t)
	c := testConn(t, s)

	attachOK(t, s, c, "phone-1")
	s.mu.Lock()
	sess := s.sessions["phone-1"]
	s.mu.Unlock()

	// Begin a transaction so the parked footprint includes an owned entry.
	if resp := s.e.Serve(&wire.Request{Op: wire.OpBegin, Tx: "t1"}, sess.owner); resp.Err != "" {
		t.Fatalf("begin: %s", resp.Err)
	}

	// Park (detach), then mutate the owned set while parked — exactly what
	// a lane worker finishing a queued terminal request does.
	s.detach(c, &wire.Request{Op: wire.OpGwDetach, Session: "phone-1"})
	if got := s.ParkedBytes(); got <= sessionBaseBytes {
		t.Fatalf("parked bytes %d do not include the owned tx", got)
	}
	sess.owner.Forget("t1")

	// Resume: the credit must cancel the charge exactly.
	attachOK(t, s, c, "phone-1")
	if got := s.ParkedBytes(); got != 0 {
		t.Fatalf("parked bytes drifted to %d after park/resume with a pruned owned set", got)
	}

	// Same invariant through the reaper path.
	if resp := s.e.Serve(&wire.Request{Op: wire.OpBegin, Tx: "t2"}, sess.owner); resp.Err != "" {
		t.Fatalf("begin t2: %s", resp.Err)
	}
	s.detach(c, &wire.Request{Op: wire.OpGwDetach, Session: "phone-1"})
	sess.owner.Forget("t2")
	clk.Advance(time.Second)
	if n := s.ExpireParked(0); n != 1 {
		t.Fatalf("expired %d sessions, want 1", n)
	}
	if got := s.ParkedBytes(); got != 0 {
		t.Fatalf("parked bytes drifted to %d after reap with a pruned owned set", got)
	}
}

// TestReapDeterministicClockAndNoReapedResume drives the retention reaper on
// a fake clock: only sessions idle past the retention window are reaped
// (pre-fix ExpireParked read the wall clock and never fired under a test
// clock), and an attach after the reap gets a fresh session — never a
// resumed one.
func TestReapDeterministicClockAndNoReapedResume(t *testing.T) {
	s, clk := newClockedGateway(t)
	c := testConn(t, s)
	const retention = 10 * time.Minute

	attachOK(t, s, c, "old")
	s.detach(c, &wire.Request{Op: wire.OpGwDetach, Session: "old"})

	clk.Advance(retention / 2)
	attachOK(t, s, c, "young")
	s.detach(c, &wire.Request{Op: wire.OpGwDetach, Session: "young"})

	clk.Advance(retention/2 + time.Second) // "old" idle > retention, "young" not
	if n := s.ExpireParked(retention); n != 1 {
		t.Fatalf("expired %d sessions, want exactly the old one", n)
	}
	if _, parked := s.SessionCounts(); parked != 1 {
		t.Fatalf("parked = %d, want 1 (young survives)", parked)
	}

	// Attaching the reaped id must create a fresh session, not resume.
	if resp := attachOK(t, s, c, "old"); resp.Resumed {
		t.Fatal("attach resumed a reaped session")
	}
	// And the surviving one still resumes.
	if resp := attachOK(t, s, c, "young"); !resp.Resumed {
		t.Fatal("young session should have resumed")
	}
	if got := s.ParkedBytes(); got != 0 {
		t.Fatalf("parked bytes = %d after all sessions resumed/reaped", got)
	}
}

// TestParkResumeRaceGaugeHammer races detach-park against re-attach and
// owned-set churn across goroutines; whatever interleaving happens, the
// gauge must return to zero once everything is resumed.
func TestParkResumeRaceGaugeHammer(t *testing.T) {
	s, _ := newClockedGateway(t)
	c := testConn(t, s)
	const sessions = 8
	const rounds = 100
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		id := string(rune('a' + i))
		attachOK(t, s, c, id)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			s.mu.Lock()
			sess := s.sessions[id]
			s.mu.Unlock()
			for r := 0; r < rounds; r++ {
				tx := id + "-t"
				s.e.Serve(&wire.Request{Op: wire.OpBegin, Tx: tx}, sess.owner)
				s.detach(c, &wire.Request{Op: wire.OpGwDetach, Session: id})
				sess.owner.Forget(tx)
				s.attach(c, &wire.Request{Op: wire.OpGwAttach, Session: id})
				s.e.Serve(&wire.Request{Op: wire.OpAbort, Tx: tx}, sess.owner)
			}
		}(id)
	}
	wg.Wait()
	if got := s.ParkedBytes(); got != 0 {
		t.Fatalf("parked bytes = %d after hammer, want 0", got)
	}
	if _, parked := s.SessionCounts(); parked != 0 {
		t.Fatalf("parked sessions = %d after hammer, want 0", parked)
	}
}
