package core

import (
	"dbtouch/internal/index"
	"dbtouch/internal/sample"
	"dbtouch/internal/storage"
)

// Live ingestion at the kernel layer: objects over a live table read one
// pinned snapshot for a whole gesture batch. Apply repins at batch start
// — the moment the ISSUE's contract names — so within a batch every
// touch, filter, group and join sees one frozen version, and between
// batches the kernel hops to the newest published version, rebinding
// objects in place so trackers, running aggregates and group tables
// survive the hop.

// livePin is the kernel's reference to one live table's pinned version.
// Pins live in a slice, not a map: repin and rebind order is then the
// deterministic object-creation order, which the equivalence suite
// relies on when it replays recorded epochs.
type livePin struct {
	table *storage.Table
	pin   *sample.Pinned
}

// ShareLive rewires the kernel onto a cross-session live store (the
// session manager calls it next to ShareStorage, before any objects
// exist). Standalone kernels lazily make a private store instead.
func (k *Kernel) ShareLive(ls *sample.LiveStore) {
	if len(k.objects) > 0 {
		panic("core: ShareLive after objects were created")
	}
	k.live = ls
}

// liveStore returns the kernel's live store, creating a private one for
// standalone kernels on first use.
func (k *Kernel) liveStore() *sample.LiveStore {
	if k.live == nil {
		k.live = sample.NewLiveStore()
	}
	return k.live
}

// OnPin registers a callback fired once per pinned live table at every
// batch start (inside Apply, on the goroutine driving the session — same
// confinement as OnResult), with the epoch the batch will read. The
// equivalence suite records these to replay each batch against a frozen
// copy of exactly the version the live run saw.
func (k *Kernel) OnPin(fn func(table string, epoch uint64)) { k.onPin = fn }

// PinnedEpochs reports the live-table snapshot epochs the kernel
// currently pins, keyed by table name (nil when it pins nothing) — the
// session log records them as checkpoint metadata. Same confinement as
// every kernel read: call only from the goroutine driving the kernel.
func (k *Kernel) PinnedEpochs() map[string]uint64 {
	if len(k.pins) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(k.pins))
	for _, lp := range k.pins {
		out[lp.table.Name()] = lp.pin.Snap.Epoch
	}
	return out
}

// pinFor returns the kernel's pin for t, taking the initial pin at the
// current snapshot on first use (object creation).
func (k *Kernel) pinFor(t *storage.Table) *livePin {
	for _, lp := range k.pins {
		if lp.table == t {
			return lp
		}
	}
	lp := &livePin{table: t, pin: k.liveStore().Pin(t)}
	k.pins = append(k.pins, lp)
	return lp
}

// repinLive advances every live pin to the newest published version and
// rebinds the affected objects. Called at batch start; between the old
// release and the new pin there is never a window where the kernel holds
// no reference, so a concurrent session's version can never be pruned
// out from under it.
func (k *Kernel) repinLive() {
	for _, lp := range k.pins {
		if lp.table.Snapshot().Epoch != lp.pin.Snap.Epoch {
			np := k.liveStore().Pin(lp.table)
			if np.Snap.Epoch != lp.pin.Snap.Epoch {
				k.rebindLiveObjects(lp.table, np)
				old := lp.pin
				lp.pin = np
				old.Release()
				k.counters.Add("live.repins", 1)
			} else {
				np.Release()
			}
		}
		if k.onPin != nil {
			k.onPin(lp.table.Name(), lp.pin.Snap.Epoch)
		}
	}
}

// rebindLiveObjects moves every object bound to t onto the new pinned
// version.
func (k *Kernel) rebindLiveObjects(t *storage.Table, pin *sample.Pinned) {
	for _, o := range k.objects {
		if o.live != t {
			continue
		}
		if err := o.rebindLive(pin); err != nil {
			k.counters.Add("live.rebind_errors", 1)
		}
	}
}

// ReleaseLive drops every live pin (session close/eviction). Pinned
// versions a concurrent session still reads stay alive through the
// store's refcounts — releasing here only removes this kernel's
// references. Idempotent.
func (k *Kernel) ReleaseLive() {
	for _, lp := range k.pins {
		lp.pin.Release()
	}
	k.pins = nil
}

// prefetchOnGrow hands an append-only hop to the prefetcher: a forward
// gesture whose warm frontier had run into the old end of the data gets
// the newly published tail warmed from that frontier (paper §2.6's
// extrapolation carried across snapshot versions) instead of paying cold
// misses when it resumes. oldLen is the tracked level's length before
// the rebind; limits are per-level indexes, matching the clamp the idle
// path uses.
func (o *Object) prefetchOnGrow(oldLen int) {
	if o.prefetcher == nil || !o.prefetcher.Enabled || o.hierarchy == nil || oldLen <= 0 {
		return
	}
	lvl, err := o.hierarchy.Level(o.lastLevel)
	if err != nil {
		return
	}
	if o.prefetcher.OnGrow(oldLen, lvl.Col.Len(), lvl.Tracker) {
		o.kernel.counters.Add("prefetch.grow_warms", 1)
	}
}

// liveSampleLevels reports the hierarchy depth live column objects use.
func (k *Kernel) liveSampleLevels() int {
	if !k.cfg.UseSamples {
		return 0
	}
	return k.cfg.SampleLevels
}

// rebindLive moves the object onto a newer pinned version of its live
// table. Append-only hops (same generation) keep all per-query state —
// running aggregates, group tables, join hash tables, trackers — and
// just extend the machinery over the new rows. A generation hop means
// retention compacted the table: row positions were rebased, so
// position-keyed query state resets (SetActions re-derives it from the
// new matrix), which is the documented compaction semantics. Sorted-view
// indexes rebuild either way (a sorted view of a longer column is a
// different permutation).
func (o *Object) rebindLive(pin *sample.Pinned) error {
	snap := pin.Snap
	o.matrix = snap.Matrix
	o.fused = storage.FusedMemo{} // the new version's columns are new: its partials start over
	oldLen := 0
	if o.IsColumn() {
		k := o.kernel
		if lvl, err := o.hierarchy.Level(o.lastLevel); err == nil {
			oldLen = lvl.Col.Len()
		}
		shared, err := pin.Samples(o.colIdx, k.liveSampleLevels())
		if err != nil {
			return err
		}
		o.hierarchy.Rebind(shared)
	}
	o.indexes = index.NewRegistry()
	if snap.Gen != o.liveGen {
		o.liveGen = snap.Gen
		o.SetActions(o.actions)
	} else {
		o.prefetchOnGrow(oldLen)
		if o.grouper != nil {
			keyCol, errK := o.matrix.Column(o.actions.Group.KeyCol)
			valCol, errV := o.matrix.Column(o.actions.Group.ValCol)
			if errK == nil && errV == nil {
				o.grouper.Rebind(keyCol, valCol)
			}
		}
		if o.join != nil {
			if col, err := o.column(); err == nil {
				o.join.RebindSide(o.joinSide == JoinLeft, col)
			}
		}
	}
	return nil
}
