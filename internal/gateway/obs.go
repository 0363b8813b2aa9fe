package gateway

import (
	"time"

	"preserial/internal/obs"
	"preserial/internal/wire"
)

// metrics is the front end's metric set. The wire_* protocol metrics cover
// every request, inline or laned: per-op counts, errors, one latency
// histogram, and connections. The gw_* family covers the session lifecycle
// (attach/park/expire) and admission rejections by saturated resource.
// Gauges (registered in newMetrics against live server state) cover
// connections, session population, parked bytes and lane backlog.
// docs/OBSERVABILITY.md documents how to read them.
type metrics struct {
	conns    *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	reqs     map[wire.Op]*obs.Counter
	reqOther *obs.Counter

	attachNew      *obs.Counter
	attachResume   *obs.Counter
	parkDetach     *obs.Counter
	parkDisconnect *obs.Counter
	expired        *obs.Counter

	rejectQuota    *obs.Counter
	rejectTenant   *obs.Counter
	rejectLane     *obs.Counter
	rejectSessions *obs.Counter
}

// allOps enumerates the protocol vocabulary for per-op counter registration.
var allOps = []wire.Op{
	wire.OpBegin, wire.OpAttach, wire.OpInvoke, wire.OpRead, wire.OpApply, wire.OpCommit, wire.OpAbort,
	wire.OpSleep, wire.OpAwake, wire.OpState, wire.OpObjects, wire.OpStats, wire.OpInfo, wire.OpTxs, wire.OpPing,
	wire.OpPrepare, wire.OpDecide, wire.OpReplay, wire.OpShards, wire.OpGwAttach, wire.OpGwDetach,
}

// newMetrics registers the gw_* family on reg, wiring the gauges to s.
func newMetrics(reg *obs.Registry, s *Server) *metrics {
	m := &metrics{
		conns:    reg.Counter(obs.NameWireConnections, "TCP connections accepted."),
		errors:   reg.Counter(obs.NameWireRequestErrors, "Requests answered with ok:false."),
		latency:  reg.Histogram(obs.NameWireRequestSeconds, "Request latency, frame read to response ready (lane queueing and blocking waits included).", nil),
		reqs:     make(map[wire.Op]*obs.Counter, len(allOps)),
		reqOther: reg.Counter(obs.WithLabel(obs.NameWireRequests, "op", "unknown"), "Requests by protocol op."),

		attachNew:      reg.Counter(obs.WithLabel(obs.NameGwAttaches, "kind", "new"), "Sessions created or resumed by gw.attach."),
		attachResume:   reg.Counter(obs.WithLabel(obs.NameGwAttaches, "kind", "resume"), "Sessions created or resumed by gw.attach."),
		parkDetach:     reg.Counter(obs.WithLabel(obs.NameGwParks, "cause", "detach"), "Sessions moved to the parked table."),
		parkDisconnect: reg.Counter(obs.WithLabel(obs.NameGwParks, "cause", "disconnect"), "Sessions moved to the parked table."),
		expired:        reg.Counter(obs.NameGwSessionsExpired, "Parked sessions reaped by the session-retention sweep."),

		rejectQuota:    reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", "quota"), "Requests shed with retry-after, by saturated resource."),
		rejectTenant:   reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", "tenant"), "Requests shed with retry-after, by saturated resource."),
		rejectLane:     reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", "lane"), "Requests shed with retry-after, by saturated resource."),
		rejectSessions: reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", "sessions"), "Requests shed with retry-after, by saturated resource."),
	}
	for _, op := range allOps {
		m.reqs[op] = reg.Counter(obs.WithLabel(obs.NameWireRequests, "op", string(op)), "Requests by protocol op.")
	}
	reg.GaugeFunc(obs.NameWireConnectionsActive, "Currently open TCP connections.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})
	reg.GaugeFunc(obs.NameGwSessionsActive, "Sessions currently bound to a connection.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions) - s.parked)
	})
	reg.GaugeFunc(obs.NameGwSessionsParked, "Sessions in the parked table (no connection, no goroutine).", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.parked)
	})
	reg.GaugeFunc(obs.NameGwParkedBytes, "Estimated heap bytes held by parked sessions.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.parkedBytes)
	})
	reg.GaugeFunc(obs.NameGwLaneDepth, "Requests queued across all dispatch lanes.", func() float64 {
		n := 0
		for _, l := range s.lanes {
			n += len(l.q)
		}
		return float64(n)
	})
	return m
}

// reject returns the rejection counter for an admission reason.
func (m *metrics) reject(reason string) *obs.Counter {
	switch reason {
	case "quota":
		return m.rejectQuota
	case "tenant":
		return m.rejectTenant
	case "lane":
		return m.rejectLane
	default:
		return m.rejectSessions
	}
}

// countOp increments the per-op request counter.
func (m *metrics) countOp(op wire.Op) {
	c := m.reqs[op]
	if c == nil {
		c = m.reqOther
	}
	c.Inc()
}

// observe records the outcome of one request read at start.
func (m *metrics) observe(start time.Time, ok bool) {
	m.latency.Observe(time.Since(start))
	if !ok {
		m.errors.Inc()
	}
}
