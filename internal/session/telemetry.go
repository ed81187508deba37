package session

import (
	"time"

	"dbtouch/internal/storage"
)

// ftdcNames is the flight-recorder metric schema, fixed so every capture
// chunk decodes against one column identity. Order matters: FTDCSample
// returns values positionally.
var ftdcNames = []string{
	"ts_unix_ns",
	"sessions_live",
	"sessions_max",
	"evictions",
	"live_tables",
	"append_epochs",
	"live_rows",
	"retention_gens",
	"kernel_bytes",
	"logged_requests",
	"log_errors",
	"log_compactions",
	"log_appended_bytes",
	"resumes",
	"replayed_requests",
}

// FTDCSample captures the manager's gauge vector for the flight
// recorder: everything Stats() reports plus the storage-layer cumulative
// counters, as int64s so the capture is exact. Unlike Stats it builds no
// per-session rows — at 10k sessions a one-second tick must not allocate
// 10k structs. Counters (append_epochs, kernel_bytes) are cumulative; the
// capture reader differentiates them into rates.
func (m *Manager) FTDCSample() (names []string, values []int64) {
	v := make([]int64, len(ftdcNames))
	v[0] = time.Now().UnixNano()

	m.mu.Lock()
	v[1] = int64(len(m.sessions))
	v[2] = int64(m.maxSessions)
	v[3] = m.evictions
	m.mu.Unlock()

	for _, t := range m.catalog.LiveTables() {
		snap := t.Snapshot()
		v[4]++
		v[5] += int64(snap.Epoch)
		v[6] += int64(snap.Rows)
		v[7] += int64(snap.Gen)
	}
	v[8] = storage.KernelBytes()
	// Durability gauges stay zero when no session-log store is attached,
	// keeping the schema (and so chunk column identity) fixed either way.
	if d := m.durability(); d != nil {
		st := d.store.Stats()
		v[9] = d.logged.Load()
		v[10] = d.logErrs.Load()
		v[11] = st.Compactions
		v[12] = st.AppendedBytes
		v[13] = d.resumes.Load()
		v[14] = d.replayed.Load()
	}
	return ftdcNames, v
}
