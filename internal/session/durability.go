package session

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dbtouch/internal/protocol"
	"dbtouch/internal/sessionlog"
	"dbtouch/internal/storage"
)

// Session durability: with a sessionlog.Store attached, the manager
// tees every successfully executed wire request into a per-session
// append-only log (and OpAppends into per-table logs), compacts logs
// into checkpoints past the store's threshold, and serves OpResume by
// replaying checkpoint + tail through the same routing the original
// requests took. Because sessions are deterministic over their virtual
// clocks, a replayed session lands bit-identical to one that never
// died — the crash-point equivalence suite pins exactly that.
//
// Ordering contract: for each session (and each table), the store's
// per-id locker is held across execute + append, so the log order is
// the execution order. Only requests that executed successfully are
// logged — a rejected or overloaded request changed no state, and
// overload outcomes depend on concurrent load, which replay must not
// re-litigate. Requests arriving for a session mid-resume serialize
// behind the same locker and run after the replay completes.

// durability bundles the manager's session-persistence state; the
// manager holds it behind an atomic pointer so the disabled path costs
// one load.
type durability struct {
	store    *sessionlog.Store
	logged   atomic.Int64
	logErrs  atomic.Int64
	resumes  atomic.Int64
	replayed atomic.Int64
}

// EnableDurability attaches a session-log store: from now on every
// executed wire request is teed into it and OpResume is served from it.
// Enable before serving traffic; the store's retention protects live
// sessions automatically. The manager does not own the store — the
// caller (dbtouch-serve) closes it on shutdown.
func (m *Manager) EnableDurability(store *sessionlog.Store) {
	store.SetProtect(func(id string) bool {
		_, ok := m.Get(id)
		return ok
	})
	m.dur.Store(&durability{store: store})
}

// durability returns the attached state, nil when disabled.
func (m *Manager) durability() *durability { return m.dur.Load() }

// serveRequest is HandleRequest's routing core, wrapped in the
// exactly-once cache: a session-scoped mutating request carrying a
// ReqID that matches the session's most recent one is answered from
// the cached response without re-executing. That is what makes lost
// responses safe to retry through a proxy — whether the original
// request executed (response torn off the wire) or never arrived, the
// retry converges on one execution and one byte-identical answer. The
// check is advisory outside the durability locker: callers that need
// the guarantee (the gateway) serialize a session's requests
// themselves, which wire clients do anyway by construction.
func (m *Manager) serveRequest(req protocol.Request) protocol.Response {
	dedupe := req.ReqID != "" && req.Session != "" && protocol.MutatesSession(req.Op)
	if dedupe {
		if s, ok := m.Get(req.Session); ok {
			if resp, hit := s.cachedResponse(req.ReqID); hit {
				return resp
			}
		}
	}
	resp := m.dispatchRequest(req)
	if dedupe && resp.OK {
		if s, ok := m.Get(req.Session); ok {
			s.cacheResponse(req.ReqID, resp)
		}
	}
	return resp
}

// cachedResponse answers a retry of the session's last mutating
// request from the exactly-once cache.
func (s *Session) cachedResponse(reqID string) (protocol.Response, bool) {
	s.dedupeMu.Lock()
	defer s.dedupeMu.Unlock()
	if s.lastReqID == "" || s.lastReqID != reqID {
		return protocol.Response{}, false
	}
	return s.lastResp, true
}

// cacheResponse records the session's last executed mutating request.
func (s *Session) cacheResponse(reqID string, resp protocol.Response) {
	s.dedupeMu.Lock()
	s.lastReqID, s.lastResp = reqID, resp
	s.dedupeMu.Unlock()
}

// dispatchRequest routes one non-duplicate request: with durability
// disabled it is routeRequest; with it enabled, session- and
// table-scoped requests execute and tee under the per-id locker.
func (m *Manager) dispatchRequest(req protocol.Request) protocol.Response {
	d := m.durability()
	if d == nil {
		if req.Op == protocol.OpResume {
			return protocol.Errorf("resume: session durability is not enabled on this server")
		}
		return m.routeRequest(req)
	}
	switch {
	case req.Op == protocol.OpResume:
		return m.handleResume(req)
	case req.Op == protocol.OpAppend && req.Table != "":
		lk := d.store.TableLocker(req.Table)
		lk.Lock()
		defer lk.Unlock()
		resp := m.routeRequest(req)
		if resp.OK {
			d.logAppend(m, req)
		}
		return resp
	case req.Session != "" && (protocol.MutatesSession(req.Op) || req.Op == protocol.OpEvict):
		lk := d.store.SessionLocker(req.Session)
		lk.Lock()
		defer lk.Unlock()
		resp := m.routeRequest(req)
		if !resp.OK {
			return resp
		}
		switch req.Op {
		case protocol.OpEvict:
			// A wire evict is the user abandoning the session: forget the
			// log (LRU eviction, by contrast, only parks it — see
			// Manager.parkLog).
			d.store.RemoveSession(req.Session)
		case protocol.OpOpen:
			// A successful open means the id was free, so any on-disk
			// history belongs to a dead predecessor: reset it.
			d.store.RemoveSession(req.Session)
			d.logRequest(m, req)
		default:
			d.logRequest(m, req)
		}
		return resp
	}
	return m.routeRequest(req)
}

// logRequest appends one executed request to the session's log and
// compacts past the threshold. A request that arrived over /rpc is
// logged as the body it arrived as (Request.Body), one built in process
// as EncodeRequest renders it; either decodes to the request executed.
// Logging failures (disk full, damaged log) degrade availability-first:
// the request already executed and is answered OK; the failure is
// counted in the LogErrors gauge and the session simply stops being
// crash-consistent until appends succeed again.
func (d *durability) logRequest(m *Manager, req protocol.Request) {
	var (
		tail int64
		err  error
	)
	if body := req.Body(); body != "" {
		tail, err = d.store.AppendSessionBody(req.Session, body)
	} else {
		var payload []byte
		if payload, err = protocol.EncodeRequest(req); err == nil {
			tail, err = d.store.AppendSession(req.Session, payload)
		}
	}
	if err != nil {
		d.logErrs.Add(1)
		return
	}
	d.logged.Add(1)
	if s, ok := m.Get(req.Session); ok {
		s.logFrames++
	}
	if tail >= d.store.CompactBytes() {
		if err := m.compactSession(d, req.Session); err != nil {
			d.logErrs.Add(1)
		}
	}
}

// compactSession folds the session's log into a checkpoint, stamping
// advisory metadata (virtual clock, object bindings, pinned epochs)
// from the live session. Caller holds the session's locker, so the
// kernel is quiescent on the wire path.
func (m *Manager) compactSession(d *durability, id string) error {
	var meta sessionlog.CheckpointMeta
	if s, ok := m.Get(id); ok {
		meta = s.checkpointMeta()
	}
	return d.store.CompactSession(id, meta)
}

// checkpointMeta snapshots the advisory checkpoint fields. runMu keeps
// the kernel reads serialized against any in-flight synchronous batch.
func (s *Session) checkpointMeta() sessionlog.CheckpointMeta {
	var meta sessionlog.CheckpointMeta
	s.runMu.Lock()
	meta.VClockNS = int64(s.kernel.Clock().Now())
	meta.Epochs = s.kernel.PinnedEpochs()
	s.runMu.Unlock()
	s.objMu.Lock()
	if len(s.objNames) > 0 {
		meta.Objects = make(map[string]int, len(s.objNames))
		for name, id := range s.objNames {
			meta.Objects[name] = id
		}
	}
	s.objMu.Unlock()
	return meta
}

// logAppend tees one executed table append (its body, as logRequest
// logs a session's) and, when the store reports
// the log due, compacts it into a checkpoint holding one append request
// with the table's current snapshot (coarser than a session checkpoint:
// replacing N batches with one trades away intermediate epochs, which
// only matters to forensics — restored sessions pin fresh epochs anyway).
func (d *durability) logAppend(m *Manager, req protocol.Request) {
	var (
		due bool
		err error
	)
	if body := req.Body(); body != "" {
		due, err = d.store.AppendTableBody(req.Table, body)
	} else {
		var payload []byte
		if payload, err = protocol.EncodeRequest(req); err == nil {
			due, err = d.store.AppendTable(req.Table, payload)
		}
	}
	if err != nil {
		d.logErrs.Add(1)
		return
	}
	d.logged.Add(1)
	if due {
		if err := m.compactTable(d, req.Table); err != nil {
			d.logErrs.Add(1)
		}
	}
}

// compactTable checkpoints a table's log as one append request carrying
// the table's published snapshot, read straight from its columns. Caller
// holds the table's locker, so no append races the snapshot read.
func (m *Manager) compactTable(d *durability, name string) error {
	t, ok := m.catalog.Live(name)
	if !ok {
		return fmt.Errorf("session: no live table %q to compact", name)
	}
	snap := t.Snapshot()
	cols := make([]*storage.Column, snap.Matrix.NumCols())
	for c := range cols {
		var err error
		if cols[c], err = snap.Matrix.Column(c); err != nil {
			return err
		}
	}
	payload, err := protocol.EncodeRows(protocol.Request{Op: protocol.OpAppend, Table: name},
		snap.Rows, len(cols), func(r, c int) storage.Value { return cols[c].Value(r) })
	if err != nil {
		return err
	}
	return d.store.CompactTable(name, payload)
}

// Resume re-materializes session id from its persisted log, replaying
// checkpoint + tail through the normal request routing. It returns how
// many requests were replayed. Resuming a live session whose log holds
// nothing this manager has not executed is a no-op (0, nil); concurrent
// resumes of the same id serialize on the session's locker and the
// losers see the winner's live session. A live copy the log has outrun —
// another process sharing the log directory ran the session since (a
// gateway failed it over and is failing it back) — is stale: it is
// evicted and rebuilt from the log, which is the truth. A log damaged
// beyond its torn tail surfaces sessionlog.ErrTornLog; a session with no
// log surfaces sessionlog.ErrNoLog.
func (m *Manager) Resume(id string) (replayed int, err error) {
	d := m.durability()
	if d == nil {
		return 0, errors.New("session: durability is not enabled")
	}
	if id == "" {
		return 0, errors.New("session: resume needs a session id")
	}
	lk := d.store.SessionLocker(id)
	lk.Lock()
	defer lk.Unlock()
	rep, err := d.store.LoadSession(id)
	if s, ok := m.Get(id); ok {
		if err != nil || len(rep.Frames) <= s.logFrames {
			return 0, nil
		}
		m.Evict(id)
	}
	if err != nil {
		return 0, fmt.Errorf("session: resume %q: %w", id, err)
	}
	for _, fr := range rep.Frames {
		req, derr := protocol.DecodeRequest(fr.Payload)
		if derr != nil {
			m.Evict(id)
			return replayed, fmt.Errorf("session: resume %q: frame %d: %w", id, fr.Seq, derr)
		}
		resp := m.routeRequest(req)
		if !resp.OK {
			// The log says this request succeeded once; if it cannot
			// succeed again the replay would land in a different state —
			// tear the partial session down rather than serve it.
			m.Evict(id)
			return replayed, fmt.Errorf("session: resume %q: replaying %s (frame %d): %s",
				id, req.Op, fr.Seq, resp.Error)
		}
		replayed++
		// Repopulate the exactly-once cache: if the crash tore off the
		// response of the log's final request, the client's retry of it
		// (same ReqID) must see the replayed — deterministically
		// identical — response instead of executing twice.
		if req.ReqID != "" {
			if s, ok := m.Get(id); ok {
				s.cacheResponse(req.ReqID, resp)
			}
		}
	}
	if s, ok := m.Get(id); ok {
		s.logFrames = replayed
	}
	d.resumes.Add(1)
	d.replayed.Add(int64(replayed))
	return replayed, nil
}

// handleResume serves the wire OpResume.
func (m *Manager) handleResume(req protocol.Request) protocol.Response {
	if req.Session == "" {
		return protocol.Errorf("resume: missing session id")
	}
	n, err := m.Resume(req.Session)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			return protocol.Overloadedf("resume: %v", err)
		}
		resp := protocol.Errorf("resume: %v", err)
		// No log at all means the session is unrecoverable — tell the
		// client it is gone for good rather than inviting retries.
		resp.Gone = errors.Is(err, sessionlog.ErrNoLog)
		return resp
	}
	resp := protocol.OK()
	resp.Replayed = n
	return resp
}

// parkLog closes a session's cached log appender while keeping its
// files: LRU eviction and manager shutdown write through to disk (the
// log is already durable per-request) and leave the session resumable.
func (m *Manager) parkLog(id string) {
	if d := m.durability(); d != nil {
		d.store.Park(id)
	}
}

// RestoreTables replays persisted table logs into the catalog's live
// tables — dbtouch-serve calls it at startup, after registering the
// tables and before installing append rate limits, so restored rows are
// not throttled or re-logged. Returns how many tables and rows were
// restored.
func (m *Manager) RestoreTables() (tables, rows int, err error) {
	d := m.durability()
	if d == nil {
		return 0, 0, errors.New("session: durability is not enabled")
	}
	for _, name := range d.store.Tables() {
		rep, err := d.store.LoadTable(name)
		if err != nil {
			return tables, rows, fmt.Errorf("session: restoring table %q: %w", name, err)
		}
		for _, fr := range rep.Frames {
			req, derr := protocol.DecodeRequest(fr.Payload)
			if derr != nil {
				return tables, rows, fmt.Errorf("session: restoring table %q: frame %d: %w", name, fr.Seq, derr)
			}
			if resp := m.routeRequest(req); !resp.OK {
				return tables, rows, fmt.Errorf("session: restoring table %q: frame %d: %s", name, fr.Seq, resp.Error)
			}
			rows += len(req.Rows)
		}
		tables++
	}
	return tables, rows, nil
}

// ResumableSessions lists the session ids with persisted logs (live or
// parked), sorted — what an operator can still resume.
func (m *Manager) ResumableSessions() []string {
	d := m.durability()
	if d == nil {
		return nil
	}
	return d.store.Sessions()
}
