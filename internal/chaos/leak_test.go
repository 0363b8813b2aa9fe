package chaos

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakSettle is how long checkGoroutineLeaks waits for goroutines a test
// started to exit after its cleanups ran: shutdown paths that cancel a
// ticker or close a socket let their goroutines finish asynchronously.
const leakSettle = 5 * time.Second

// checkGoroutineLeaks fails t if goroutines that did not exist when it was
// called are still running once the test and its other cleanups are done.
// Call it first in a test: cleanups run last-registered-first, so the
// check runs after every deferred Close and every later t.Cleanup. The
// leaked goroutines' stacks are printed.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	before := goroutineStacks()
	t.Cleanup(func() {
		deadline := time.Now().Add(leakSettle)
		for {
			var leaked []string
			for id, stack := range goroutineStacks() {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines leaked (still running %v after the test):\n\n%s",
					len(leaked), leakSettle, strings.Join(leaked, "\n\n"))
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}

// goroutineStacks returns every live goroutine's stack, keyed by its
// "goroutine N" header.
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		stack := string(g)
		header, _, _ := strings.Cut(stack, " [")
		out[header] = stack
	}
	return out
}
