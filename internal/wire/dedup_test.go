package wire

import (
	"testing"
	"time"
)

func TestDedupWindowBasics(t *testing.T) {
	w := newDedupWindow(4)

	e1, fresh, err := w.admit(1)
	if err != nil || !fresh {
		t.Fatalf("first admit: fresh=%v err=%v", fresh, err)
	}
	w.finish(e1, &Response{OK: true, State: "one"})

	// The same seq is no longer fresh and carries the recorded response.
	e1b, fresh, err := w.admit(1)
	if err != nil || fresh {
		t.Fatalf("readmit: fresh=%v err=%v", fresh, err)
	}
	select {
	case <-e1b.done:
	default:
		t.Fatal("finished entry's done channel not closed")
	}
	if got := w.response(e1b); got == nil || got.State != "one" {
		t.Fatalf("cached response = %+v", got)
	}

	// Sequences far behind the window are refused, not silently replayed.
	for seq := uint64(2); seq <= 10; seq++ {
		e, _, err := w.admit(seq)
		if err != nil {
			t.Fatalf("admit %d: %v", seq, err)
		}
		w.finish(e, &Response{OK: true})
	}
	if _, _, err := w.admit(1); err == nil {
		t.Fatal("seq long past the window must be refused")
	}
}

func TestDedupWindowRacingRetryWaitsForOriginal(t *testing.T) {
	w := newDedupWindow(8)
	orig, fresh, err := w.admit(3)
	if err != nil || !fresh {
		t.Fatal("original admit failed")
	}
	retry, fresh, err := w.admit(3)
	if err != nil || fresh {
		t.Fatal("racing retry must not be fresh")
	}
	got := make(chan *Response, 1)
	go func() {
		<-retry.done
		got <- w.response(retry)
	}()
	select {
	case <-got:
		t.Fatal("retry resolved before the original finished")
	case <-time.After(20 * time.Millisecond):
	}
	w.finish(orig, &Response{OK: true, State: "done"})
	select {
	case r := <-got:
		if r == nil || r.State != "done" {
			t.Fatalf("retry saw %+v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("retry never resolved")
	}
}
