package main

import (
	"fmt"

	"preserial/internal/sem"
)

// checkOracle verifies the run's outcome against what the clients were
// told. Workloads whose updates are all add/sub check conservation: each
// object's stored value is its initial value minus its acknowledged
// bookings, and every read lies within [final, initial]. The travel
// workload has assigns, so it replays the GTM's committed history from the
// initial values instead: applying each acknowledged transaction's
// operations in history order must reproduce every recorded X_new and the
// stored finals, and the history must hold exactly the acknowledged
// commits.
func checkOracle(w *workload, st *stack, rec *recorder, objs []objSpec) error {
	if w.assigns {
		return checkHistory(st, rec, objs)
	}
	return checkConservation(st, rec, objs)
}

func checkConservation(st *stack, rec *recorder, objs []objSpec) error {
	want := make([]int64, len(objs))
	for i, o := range objs {
		want[i] = o.initial
	}
	for _, c := range rec.acked {
		for _, op := range c.ops {
			if op.class != sem.AddSub {
				return fmt.Errorf("oracle: %s has a %s operation; conservation needs add/sub only", c.tx, op.class)
			}
			want[op.obj] += op.operand
		}
	}
	for i, o := range objs {
		got, err := st.storedValue(o)
		if err != nil {
			return fmt.Errorf("oracle: read %s: %w", o.id, err)
		}
		if got != want[i] {
			return fmt.Errorf("oracle: %s stored %d, want initial %d minus acked bookings = %d", o.id, got, o.initial, want[i])
		}
	}
	for _, r := range rec.reads {
		if r.val < want[r.obj] || r.val > objs[r.obj].initial {
			return fmt.Errorf("oracle: read of %s returned %d outside [%d, %d]", objs[r.obj].id, r.val, want[r.obj], objs[r.obj].initial)
		}
	}
	// Every acknowledged booking is one GTM commit; snapshot reads commit
	// nothing.
	commits := st.managerStats().Committed
	if st.cluster != nil {
		cs := st.cluster.Stats()
		commits = cs["cluster_single_commits"] + cs["cluster_cross_commits"]
	}
	acked := uint64(len(rec.acked))
	if commits != acked {
		return fmt.Errorf("oracle: GTM committed %d transactions, clients were acknowledged %d", commits, acked)
	}
	return nil
}

func checkHistory(st *stack, rec *recorder, objs []objSpec) error {
	index := make(map[string]int, len(objs))
	cur := make([]int64, len(objs))
	for i, o := range objs {
		index[o.id] = i
		cur[i] = o.initial
	}
	ops := make(map[string]map[int]opSpec, len(rec.acked))
	for _, c := range rec.acked {
		m := make(map[int]opSpec, len(c.ops))
		for _, op := range c.ops {
			m[op.obj] = op
		}
		ops[c.tx] = m
	}
	inHistory := make(map[string]bool)
	for _, h := range st.history() {
		tx := string(h.Tx)
		inHistory[tx] = true
		i, ok := index[string(h.Object)]
		if !ok {
			return fmt.Errorf("oracle: history names unknown object %s", h.Object)
		}
		op, ok := ops[tx][i]
		if !ok {
			return fmt.Errorf("oracle: history has %s on %s, which no client was acknowledged", tx, h.Object)
		}
		if op.class != h.Op.Class {
			return fmt.Errorf("oracle: %s on %s: history class %s, client sent %s", tx, h.Object, h.Op.Class, op.class)
		}
		switch op.class {
		case sem.AddSub:
			cur[i] += op.operand
		case sem.Assign:
			cur[i] = op.operand
		}
		if h.New.Int64() != cur[i] {
			return fmt.Errorf("oracle: %s wrote %s = %d, replay gives %d", tx, h.Object, h.New.Int64(), cur[i])
		}
	}
	if len(inHistory) != len(rec.acked) {
		return fmt.Errorf("oracle: history holds %d transactions, clients were acknowledged %d", len(inHistory), len(rec.acked))
	}
	if c := st.managerStats().Committed; c != uint64(len(rec.acked)) {
		return fmt.Errorf("oracle: GTM committed %d transactions, clients were acknowledged %d", c, len(rec.acked))
	}
	for i, o := range objs {
		got, err := st.storedValue(o)
		if err != nil {
			return fmt.Errorf("oracle: read %s: %w", o.id, err)
		}
		if got != cur[i] {
			return fmt.Errorf("oracle: %s stored %d, history replay gives %d", o.id, got, cur[i])
		}
	}
	return nil
}
