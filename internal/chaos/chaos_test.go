package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"preserial/internal/faultnet"
	"preserial/internal/sem"
	"preserial/internal/wire"
)

// resilientOpts is the client tuning the chaos tests share: short call
// timeouts so lost responses are detected quickly, and a generous attempt
// budget so a crash-restart outage is survived.
func resilientOpts(seed int64) wire.ResilientOptions {
	return wire.ResilientOptions{
		CallTimeout: 2 * time.Second,
		BackoffBase: 20 * time.Millisecond,
		BackoffCap:  250 * time.Millisecond,
		MaxAttempts: 40,
		Seed:        seed,
	}
}

// forceReplay books one seat on object 0 through a one-way partition
// engineered so the commit's first attempt executes server-side but its
// response is swallowed: the client must retry and the server must answer
// from the exactly-once window. Returns the commit error.
func forceReplay(t *testing.T, h *Harness, tx string) error {
	t.Helper()
	opts := resilientOpts(11)
	opts.CallTimeout = 300 * time.Millisecond
	opts.BackoffCap = 100 * time.Millisecond
	rc := wire.DialResilient(h.Addr(), opts)
	defer rc.Close()

	if err := rc.Begin(tx); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := rc.Invoke(tx, h.Object(0), sem.AddSub, ""); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if err := rc.Apply(tx, h.Object(0), sem.Int(-1)); err != nil {
		t.Fatalf("apply: %v", err)
	}
	// Swallow server→client traffic: the commit is processed and made
	// durable, but the ack vanishes — the classic ambiguous outcome.
	h.Proxy.SetConfig(faultnet.Config{Seed: 11, BlackholeS2C: true})
	lift := time.AfterFunc(700*time.Millisecond, func() {
		h.Proxy.SetConfig(faultnet.Config{Seed: 11})
	})
	defer lift.Stop()
	err := rc.Commit(tx)
	// Make sure the partition is lifted before the caller moves on.
	time.Sleep(750 * time.Millisecond)
	h.Proxy.SetConfig(faultnet.Config{Seed: 11})
	return err
}

// TestExactlyOnceReplayAcrossPartition is the deterministic core of the
// tentpole: a commit whose response is lost must be retried and replayed,
// booking exactly one seat.
func TestExactlyOnceReplayAcrossPartition(t *testing.T) {
	checkGoroutineLeaks(t)
	const seats = 10
	h, err := NewHarness(t.TempDir(), 1, seats, faultnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if err := forceReplay(t, h, "replay-1"); err != nil {
		t.Fatalf("commit through partition: %v", err)
	}
	if got := h.Replays(); got == 0 {
		t.Fatal("wire_replayed_responses_total = 0; the retry re-executed or never happened")
	}
	v, err := h.Seat(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != seats-1 {
		t.Fatalf("seat count = %d, want %d (exactly one booking)", v, seats-1)
	}
}

// TestLegacyClientDoubleApplies demonstrates the hazard the sequence
// numbers remove: a v1 client (no seq) that retries an apply whose response
// was lost books the seat twice. The assertion *documents the failure* —
// the same scenario through a ResilientConn (above) books exactly once.
func TestLegacyClientDoubleApplies(t *testing.T) {
	checkGoroutineLeaks(t)
	const seats = 10
	h, err := NewHarness(t.TempDir(), 1, seats, faultnet.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	cn, err := wire.Dial(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cn.SetCallTimeout(300 * time.Millisecond)
	const tx = "legacy-1"
	if err := cn.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if err := cn.Invoke(tx, h.Object(0), sem.AddSub, ""); err != nil {
		t.Fatal(err)
	}
	// The apply executes server-side; the ack is swallowed.
	h.Proxy.SetConfig(faultnet.Config{Seed: 2, BlackholeS2C: true})
	if err := cn.Apply(tx, h.Object(0), sem.Int(-1)); !errors.Is(err, wire.ErrCallTimeout) {
		t.Fatalf("apply under partition: want timeout, got %v", err)
	}
	cn.Close()
	time.Sleep(100 * time.Millisecond) // let the server sleep the transaction
	h.Proxy.SetConfig(faultnet.Config{Seed: 2})

	// Reconnect the legacy way: attach, awaken, and — not knowing whether
	// the lost apply landed — apply "again".
	cn2, err := wire.Dial(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cn2.Close()
	if err := cn2.Attach(tx); err != nil {
		t.Fatal(err)
	}
	if st, _ := cn2.State(tx); st == "Sleeping" {
		resumed, err := cn2.Awake(tx)
		if err != nil || !resumed {
			t.Fatalf("awake: resumed=%v err=%v", resumed, err)
		}
	}
	if err := cn2.Apply(tx, h.Object(0), sem.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if err := cn2.Commit(tx); err != nil {
		t.Fatal(err)
	}
	v, err := h.Seat(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != seats-2 {
		t.Fatalf("seat count = %d, want %d (the documented double booking)", v, seats-2)
	}
}

// TestDiskKillRecoverExactConservation drives the disk engine through
// repeated kill-and-recover cycles with a working set at least 4x the
// page-cache budget. The network is fault-free, so every commit outcome
// is known and the oracle is exact — each seat counter must equal its
// initial value minus the acknowledged bookings, to the seat. Rounds
// alternate between checkpointed (recovery from the superblock) and
// not (recovery from pure WAL redo on top of the previous superblock).
func TestDiskKillRecoverExactConservation(t *testing.T) {
	checkGoroutineLeaks(t)
	const objects = 4096
	const seats = int64(100)
	h, err := NewHarnessStore(t.TempDir(), objects, seats, faultnet.Config{Seed: 5},
		StoreConfig{Driver: "disk", PageSize: 2048, PageCacheBytes: 1}) // budget clamps to the driver's 8-page floor
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	rounds, perRound := 4, 60
	if testing.Short() {
		rounds, perRound = 2, 30
	}
	booked := make([]int64, objects)
	rng := rand.New(rand.NewSource(42))
	for r := 0; r < rounds; r++ {
		rc := wire.DialResilient(h.Addr(), resilientOpts(int64(r+100)))
		for i := 0; i < perRound; i++ {
			o := rng.Intn(objects)
			tx := fmt.Sprintf("kr%d-%d", r, i)
			if err := rc.Begin(tx); err != nil {
				t.Fatalf("round %d begin: %v", r, err)
			}
			if err := rc.Invoke(tx, h.Object(o), sem.AddSub, ""); err != nil {
				t.Fatalf("round %d invoke: %v", r, err)
			}
			if err := rc.Apply(tx, h.Object(o), sem.Int(-1)); err != nil {
				t.Fatalf("round %d apply: %v", r, err)
			}
			if err := rc.Commit(tx); err != nil {
				t.Fatalf("round %d commit: %v", r, err)
			}
			booked[o]++
		}
		rc.Close()
		if r%2 == 0 {
			if err := h.Checkpoint(); err != nil {
				t.Fatalf("round %d checkpoint: %v", r, err)
			}
		}
		h.Crash()
		if err := h.Restart(); err != nil {
			t.Fatalf("round %d restart: %v", r, err)
		}
	}

	st := h.StoreStats()
	workingSet := st.FilePages * int64(st.PageSize)
	if st.CacheBudget <= 0 || workingSet < 4*st.CacheBudget {
		t.Fatalf("working set %dB < 4x cache budget %dB — the soak is not exercising eviction", workingSet, st.CacheBudget)
	}
	t.Logf("working set %dB, cache budget %dB, evictions %d", workingSet, st.CacheBudget, st.Evictions)
	for o := 0; o < objects; o++ {
		v, err := h.Seat(o)
		if err != nil {
			t.Fatalf("seat %d: %v", o, err)
		}
		if want := seats - booked[o]; v != want {
			t.Errorf("object %d: seat count %d, want exactly %d (%d acked bookings)", o, v, want, booked[o])
		}
	}
}

// TestChaosSoak drives a fleet of resilient clients through random drops,
// resets and delays, crashes and restarts the server twice mid-traffic,
// then audits seat conservation against per-client accounting:
//
//	ackedBookings ≤ seatsGone ≤ ackedBookings + unknownOutcomes
//
// The lower bound catches lost acknowledged commits (durability), the
// upper bound catches double-applied retries (exactly-once). A scripted
// partition first guarantees at least one genuine replay is exercised.
func TestChaosSoak(t *testing.T) {
	checkGoroutineLeaks(t)
	const objects = 8
	const seats = int64(1000)
	h, err := NewHarness(t.TempDir(), objects, seats, faultnet.Config{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	runChaosSoak(t, h, objects, seats)
}

// TestChaosSoakDisk is the same soak with the disk storage engine at
// the smallest page size and cache budget the driver accepts, so the
// conservation oracle also audits the page-file + WAL recovery path.
// (Sustained eviction pressure is the exact-oracle test's job, below.)
func TestChaosSoakDisk(t *testing.T) {
	checkGoroutineLeaks(t)
	const objects = 8
	const seats = int64(1000)
	h, err := NewHarnessStore(t.TempDir(), objects, seats, faultnet.Config{Seed: 77},
		StoreConfig{Driver: "disk", PageSize: 2048, PageCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := h.StoreStats().Driver; got != "disk" {
		t.Fatalf("driver = %q, want disk", got)
	}
	runChaosSoak(t, h, objects, seats)
}

// runChaosSoak is the driver-agnostic soak body shared by the mem and
// disk legs.
func runChaosSoak(t *testing.T, h *Harness, objects int, seats int64) {
	clients, txsPer := 6, 4
	if !testing.Short() {
		clients, txsPer = 12, 8
	}

	// Phase 1: deterministic replay so the exactly-once path is provably
	// exercised regardless of how the random faults land.
	ackedSub := make([]int64, objects)
	unknownSub := make([]int64, objects)
	if err := forceReplay(t, h, "soak-replay"); err != nil {
		unknownSub[0]++
	} else {
		ackedSub[0]++
	}

	// Phase 2: random fault mix plus two crash-restarts under load.
	h.Proxy.SetConfig(faultnet.Config{
		Seed:      78,
		DropProb:  0.02,
		ResetProb: 0.01,
		DelayProb: 0.05,
		Delay:     3 * time.Millisecond,
	})

	var mu sync.Mutex // guards the two tallies
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rc := wire.DialResilient(h.Addr(), resilientOpts(int64(id+1)))
			defer rc.Close()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 13))
			for i := 0; i < txsPer; i++ {
				tx := fmt.Sprintf("c%d-t%d", id, i)
				o1 := rng.Intn(objects)
				o2 := (o1 + 1 + rng.Intn(objects-1)) % objects
				picks := []int{o1, o2}

				if err := rc.Begin(tx); err != nil {
					continue // never begun: cannot have booked anything
				}
				ok := true
				for _, o := range picks {
					if err := rc.Invoke(tx, h.Object(o), sem.AddSub, ""); err != nil {
						ok = false
						break
					}
					if err := rc.Apply(tx, h.Object(o), sem.Int(-1)); err != nil {
						ok = false
						break
					}
				}
				if !ok {
					// Commit was never requested, so this transaction can
					// never book: abandon it (abort is best-effort).
					_ = rc.Abort(tx)
					continue
				}
				err := rc.Commit(tx)
				mu.Lock()
				for _, o := range picks {
					if err == nil {
						ackedSub[o]++
					} else {
						// Conservative: any failed commit *may* have landed
						// (lost ack, crash after WAL append). Count it in
						// the upper bound only.
						unknownSub[o]++
					}
				}
				mu.Unlock()
			}
		}(c)
	}

	// Two crash-restarts while the fleet is (very likely still) active.
	for k := 0; k < 2; k++ {
		time.Sleep(800 * time.Millisecond)
		h.Crash()
		time.Sleep(50 * time.Millisecond)
		if err := h.Restart(); err != nil {
			t.Fatalf("restart %d: %v", k+1, err)
		}
	}
	wg.Wait()

	// Final audit happens on a freshly recovered generation so the numbers
	// come from CHECKPOINT + WAL, not from anything cached in memory.
	h.Proxy.SetConfig(faultnet.Config{Seed: 79})
	h.Crash()
	if err := h.Restart(); err != nil {
		t.Fatalf("final restart: %v", err)
	}

	severed, delayed, _ := h.Proxy.Stats()
	t.Logf("proxy: %d connections severed, %d chunks delayed", severed, delayed)
	if severed == 0 && delayed == 0 {
		t.Error("fault injection never fired; soak tested nothing")
	}
	if got := h.Replays(); got == 0 {
		t.Error("wire_replayed_responses_total = 0 across the whole soak")
	} else {
		t.Logf("replayed responses: %d", got)
	}

	var totalGone, totalAcked, totalUnknown int64
	for o := 0; o < objects; o++ {
		final, err := h.Seat(o)
		if err != nil {
			t.Fatalf("seat %d: %v", o, err)
		}
		gone := seats - final
		totalGone += gone
		totalAcked += ackedSub[o]
		totalUnknown += unknownSub[o]
		if gone < ackedSub[o] {
			t.Errorf("object %d: %d seats gone but %d bookings acknowledged — an acked commit was lost", o, gone, ackedSub[o])
		}
		if gone > ackedSub[o]+unknownSub[o] {
			t.Errorf("object %d: %d seats gone exceeds acked %d + unknown %d — a retry double-booked", o, gone, ackedSub[o], unknownSub[o])
		}
	}
	t.Logf("conservation: %d seats gone, %d acked, %d unknown-outcome (bounds %d..%d)",
		totalGone, totalAcked, totalUnknown, totalAcked, totalAcked+totalUnknown)
	if totalGone < totalAcked || totalGone > totalAcked+totalUnknown {
		t.Fatalf("global conservation violated: gone=%d not in [%d, %d]",
			totalGone, totalAcked, totalAcked+totalUnknown)
	}
	if totalAcked <= 1 {
		t.Errorf("only %d acknowledged bookings; soak made no real progress", totalAcked)
	}
}
