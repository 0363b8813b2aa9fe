package store

import (
	"sync"

	"preserial/internal/obs"
)

// Metrics is the store_* instrument set a driver increments on its hot
// paths. All instruments are shared per registry (obs registration is
// idempotent by name), so in cluster mode every shard's driver adds into
// the same series — matching how the rest of the ldbs family is counted.
type Metrics struct {
	CacheHits         *obs.Counter
	CacheMisses       *obs.Counter
	Evictions         *obs.Counter
	PagesRead         *obs.Counter
	PagesWritten      *obs.Counter
	Checkpoints       *obs.Counter
	CheckpointSeconds *obs.Histogram
}

var (
	bindMu sync.Mutex
	// bound maps a registry to the live driver instances feeding its
	// store_* gauges. Gauge closures sum Stats() over this set, so the
	// gauges survive driver close/reopen and aggregate across shards.
	bound = make(map[*obs.Registry]map[Driver]struct{})
)

// BindObs registers the store_* family on r and adds d to the set of
// driver instances behind the registry's gauges. It returns the counter
// instruments for the driver to increment. Call UnbindObs from Close.
// A nil registry returns usable (unregistered) instruments.
func BindObs(r *obs.Registry, d Driver) *Metrics {
	if r == nil {
		return &Metrics{
			CacheHits:         &obs.Counter{},
			CacheMisses:       &obs.Counter{},
			Evictions:         &obs.Counter{},
			PagesRead:         &obs.Counter{},
			PagesWritten:      &obs.Counter{},
			Checkpoints:       &obs.Counter{},
			CheckpointSeconds: obs.NewHistogram(nil),
		}
	}
	bindMu.Lock()
	set, seen := bound[r]
	if !seen {
		set = make(map[Driver]struct{})
		bound[r] = set
	}
	set[d] = struct{}{}
	bindMu.Unlock()
	if !seen {
		sum := func(pick func(Stats) float64) func() float64 {
			return func() float64 {
				bindMu.Lock()
				drivers := make([]Driver, 0, len(bound[r]))
				for b := range bound[r] {
					drivers = append(drivers, b)
				}
				bindMu.Unlock()
				var total float64
				for _, b := range drivers {
					total += pick(b.Stats())
				}
				return total
			}
		}
		r.GaugeFunc(obs.NameStoreDirtyPages, "Dirty pages awaiting flush across bound drivers.",
			sum(func(s Stats) float64 { return float64(s.DirtyPages) }))
		r.GaugeFunc(obs.NameStoreCacheBytes, "Bytes held by driver page caches.",
			sum(func(s Stats) float64 { return float64(s.CachedBytes) }))
		r.GaugeFunc(obs.NameStoreCacheBudget, "Configured page-cache byte budgets.",
			sum(func(s Stats) float64 { return float64(s.CacheBudget) }))
		r.GaugeFunc(obs.NameStoreRows, "Rows held across bound drivers.",
			sum(func(s Stats) float64 { return float64(s.Rows) }))
		r.GaugeFunc(obs.NameStoreLastCkptMicros, "Duration of the most recent driver checkpoint, microseconds (max over drivers).",
			func() float64 {
				bindMu.Lock()
				drivers := make([]Driver, 0, len(bound[r]))
				for b := range bound[r] {
					drivers = append(drivers, b)
				}
				bindMu.Unlock()
				var max float64
				for _, b := range drivers {
					if v := b.Stats().LastCheckpointSeconds * 1e6; v > max {
						max = v
					}
				}
				return max
			})
	}
	return &Metrics{
		CacheHits:         r.Counter(obs.NameStoreCacheHits, "Page-cache hits."),
		CacheMisses:       r.Counter(obs.NameStoreCacheMisses, "Page-cache misses (page read from disk)."),
		Evictions:         r.Counter(obs.NameStoreCacheEvictions, "Pages evicted from the cache."),
		PagesRead:         r.Counter(obs.NameStorePagesRead, "Pages read from the backing file."),
		PagesWritten:      r.Counter(obs.NameStorePagesWritten, "Pages written to the backing file."),
		Checkpoints:       r.Counter(obs.NameStoreCheckpoints, "Driver checkpoints completed."),
		CheckpointSeconds: r.Histogram(obs.NameStoreCheckpointSeconds, "Driver checkpoint duration.", nil),
	}
}

// UnbindObs removes d from the gauge set of r, and forgets r once its last
// driver is gone so a closed stack's registry is not kept reachable. A
// later BindObs on r is safe: the gauges it registered first look the set
// up by registry at exposition time. Safe on a nil registry or an unbound
// driver.
func UnbindObs(r *obs.Registry, d Driver) {
	if r == nil {
		return
	}
	bindMu.Lock()
	if set, ok := bound[r]; ok {
		delete(set, d)
		if len(set) == 0 {
			delete(bound, r)
		}
	}
	bindMu.Unlock()
}
