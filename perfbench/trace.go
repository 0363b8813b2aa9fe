package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Trace is the transaction
// id when the call carries one; store, WAL and driver calls carry none and
// stay unparented. Parent links a span to the span that caused it: a client
// RPC to its task, a backend call to its client RPC (linked after the run by
// transaction id, operation and containment — see linkBackend).
type span struct {
	ID, Parent uint64
	Trace      string
	Name       string // "<layer>.<op>", e.g. "gateway.invoke"
	Start, End int64  // nanoseconds since the tracer's epoch (monotonic)
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so wrappers can be written without nil checks at the
// call sites.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now returns the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its id and start stamp.
func (t *tracer) start() (uint64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), t.now()
}

// end closes a span opened by start.
func (t *tracer) end(id uint64, start int64, name, trace string, parent uint64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do times fn as one span.
func (t *tracer) do(name, trace string, parent uint64, fn func() error) error {
	id, st := t.start()
	err := fn()
	t.end(id, st, name, trace, parent)
	return err
}

// snapshot returns the spans recorded so far, sorted by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// linkBackend sets the parent of every backend span (prefix, e.g. "core.")
// to the client RPC span (prefix "gateway.") of the same transaction and
// operation whose interval contains it, and returns the pairs. One
// transaction's RPCs run one at a time, so the containing RPC is unique.
// alias maps a backend op to the client op that issues it where the names
// differ. One-shot snapshot reads carry no transaction; they are keyed by
// object (recorded as the trace of both spans), which is unique unless two
// reads of one object overlap — then either containing RPC is taken.
func linkBackend(spans []span, client, backend string, alias map[string]string) map[int]int {
	type key struct{ trace, op string }
	rpcs := make(map[key][]int)
	for i, s := range spans {
		if op, ok := strings.CutPrefix(s.Name, client); ok && s.Trace != "" {
			k := key{s.Trace, op}
			rpcs[k] = append(rpcs[k], i)
		}
	}
	pairs := make(map[int]int) // backend index → rpc index
	for i := range spans {
		op, ok := strings.CutPrefix(spans[i].Name, backend)
		if !ok || spans[i].Trace == "" {
			continue
		}
		if a, ok := alias[op]; ok {
			op = a
		}
		for _, r := range rpcs[key{spans[i].Trace, op}] {
			if spans[r].Start <= spans[i].Start && spans[i].End <= spans[r].End {
				spans[i].Parent = spans[r].ID
				pairs[i] = r
				break
			}
		}
	}
	return pairs
}

// dumpSpans writes the spans as tab-separated lines:
// id, parent, trace, name, start_ns, end_ns.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\ttrace\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\n", s.ID, s.Parent, s.Trace, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	durs []float64 // milliseconds
}

func (s *spanStats) p(q float64) float64 { return quantile(s.durs, q) }
func (s *spanStats) n() int {
	if s == nil {
		return 0
	}
	return len(s.durs)
}

// byName groups span durations by name.
func byName(spans []span) map[string]*spanStats {
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.durs = append(st.durs, s.ms())
	}
	return out
}

// selfTimes returns, per client op, the RPC durations minus their linked
// backend span: the time spent in the gateway, the wire and the client.
func selfTimes(spans []span, pairs map[int]int, client string) map[string][]float64 {
	out := make(map[string][]float64)
	for b, r := range pairs {
		op := strings.TrimPrefix(spans[r].Name, client)
		out[op] = append(out[op], spans[r].ms()-spans[b].ms())
	}
	return out
}

// childSelf returns the durations of every span named parent minus the
// time covered by spans named in children that share its trace and lie
// inside it — the coordinator's own share of a commit. Overlapping
// children (parallel prepares) are counted once; parents without children
// are skipped.
func childSelf(spans []span, parent string, children ...string) []float64 {
	isChild := make(map[string]bool, len(children))
	for _, c := range children {
		isChild[c] = true
	}
	kids := make(map[string][]span)
	for _, s := range spans { // sorted by start, so kids are too
		if isChild[s.Name] && s.Trace != "" {
			kids[s.Trace] = append(kids[s.Trace], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != parent || len(kids[s.Trace]) == 0 {
			continue
		}
		var covered, reach int64
		reach = s.Start
		for _, k := range kids[s.Trace] {
			if k.Start < s.Start || k.End > s.End {
				continue
			}
			from := max(k.Start, reach)
			if k.End > from {
				covered += k.End - from
				reach = k.End
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e6)
	}
	return out
}
