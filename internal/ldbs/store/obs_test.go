package store

import (
	"testing"

	"preserial/internal/obs"
)

// statsDriver is a Driver whose only live method is Stats.
type statsDriver struct {
	Driver
	rows int64
}

func (d *statsDriver) Stats() Stats { return Stats{Rows: d.rows} }

// isBound reports whether r is still in the package-level bound map.
func isBound(r *obs.Registry) bool {
	bindMu.Lock()
	defer bindMu.Unlock()
	_, ok := bound[r]
	return ok
}

// TestUnbindObsForgetsRegistry: once its last driver unbinds, a registry
// is no longer reachable from the bound map, and binding it again still
// feeds its gauges.
func TestUnbindObsForgetsRegistry(t *testing.T) {
	r := obs.NewRegistry()
	a, b := &statsDriver{rows: 3}, &statsDriver{rows: 4}
	BindObs(r, a)
	BindObs(r, b)
	if got := r.Snapshot()[obs.NameStoreRows]; got != 7 {
		t.Fatalf("rows gauge = %d with two drivers bound, want 7", got)
	}
	UnbindObs(r, a)
	if !isBound(r) {
		t.Fatal("registry forgotten while a driver is still bound")
	}
	UnbindObs(r, b)
	if isBound(r) {
		t.Fatal("registry still in the bound map after its last driver unbound")
	}
	if got := r.Snapshot()[obs.NameStoreRows]; got != 0 {
		t.Fatalf("rows gauge = %d with no driver bound, want 0", got)
	}

	BindObs(r, b)
	defer UnbindObs(r, b)
	if got := r.Snapshot()[obs.NameStoreRows]; got != 4 {
		t.Fatalf("rows gauge = %d after rebinding, want 4", got)
	}
}
