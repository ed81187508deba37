package sessionlog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// DefaultCompactBytes is the log-tail size that triggers compaction
	// into a checkpoint when Options.CompactBytes is zero.
	DefaultCompactBytes = 256 << 10
	// MaxOpenLogs caps cached appender file descriptors; colder logs are
	// closed and reopened on demand, so 10k live sessions cost
	// O(MaxOpenLogs) fds, not O(sessions).
	MaxOpenLogs = 64
)

// Options configures a Store. Zero values select the defaults.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// CompactBytes is the per-log tail threshold: Append reports the
	// tail size and the session layer compacts once it crosses this.
	CompactBytes int64
	// RetainBytes bounds the directory's total size: past it, the
	// oldest unprotected session file pairs are deleted (they lose
	// resumability — the same trade the flight recorder makes). 0
	// disables the bound. Table logs are data, never dropped.
	RetainBytes int64
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// AppendedFrames and AppendedBytes count lifetime appends.
	AppendedFrames int64
	AppendedBytes  int64
	// Compactions counts checkpoint rewrites (sessions and tables).
	Compactions int64
	// DroppedSessions counts session logs deleted by retention.
	DroppedSessions int64
	// TornTruncations counts torn tails healed on appender reopen.
	TornTruncations int64
	// OpenLogs is the current cached-appender count.
	OpenLogs int
}

// Replay is one log's decoded history: checkpoint frames followed by
// the tail, duplicates from a crash between checkpoint-rename and
// log-truncate already skipped.
type Replay struct {
	// Meta is the checkpoint header, nil when no checkpoint exists.
	Meta *CheckpointMeta
	// Frames is the full replayable history in sequence order.
	Frames []Frame
	// Torn reports a tolerated torn tail: trailing bytes of a partial
	// final frame were dropped.
	Torn bool
	// LastSeq is the sequence number of the last frame (0 if none).
	LastSeq uint64
}

// Store owns one directory of session and table logs. All methods are
// safe for concurrent use; callers serialize per-log execute+append
// sequences with SessionLocker/TableLocker (the store's own mutex only
// protects its internal state and makes individual file operations
// atomic with respect to each other).
type Store struct {
	dir          string
	compactBytes int64
	retainBytes  int64

	mu        sync.Mutex
	protect   func(string) bool
	appenders map[string]*appender
	order     []string // appender LRU, oldest first
	locks     map[string]*sync.Mutex
	sinceScan int64
	closed    bool
	stats     Stats
	// frame is the buffer an append frames its payload in; tail holds
	// the log a session compaction reads; segs compresses its segments.
	frame []byte
	tail  []byte
	segs  segmentWriter
}

// appender is one open log file positioned at its end.
type appender struct {
	f       *os.File
	size    int64
	nextSeq uint64
	// ckptBytes is the RawBytes of the log's checkpoint, a table's
	// compaction threshold (see AppendTable).
	ckptBytes int64
}

// Open opens (creating if needed) the log directory.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("sessionlog: empty directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	st := &Store{
		dir:          opts.Dir,
		compactBytes: opts.CompactBytes,
		retainBytes:  opts.RetainBytes,
		appenders:    make(map[string]*appender),
		locks:        make(map[string]*sync.Mutex),
	}
	if st.compactBytes <= 0 {
		st.compactBytes = DefaultCompactBytes
	}
	return st, nil
}

// CompactBytes reports the configured compaction threshold.
func (st *Store) CompactBytes() int64 { return st.compactBytes }

// SetProtect installs the retention exemption callback: a session it
// reports true for is never deleted by retention (the session manager
// protects live sessions). The callback runs while the store's mutex is
// held, so it must not call back into the store.
func (st *Store) SetProtect(fn func(id string) bool) {
	st.mu.Lock()
	st.protect = fn
	st.mu.Unlock()
}

// SessionLocker returns the mutex serializing one session's
// execute+append sequences (and its resume). Lockers are per-id and
// live for the store's lifetime.
func (st *Store) SessionLocker(id string) *sync.Mutex { return st.locker(sessionPrefix, id) }

// TableLocker is SessionLocker for a table log.
func (st *Store) TableLocker(name string) *sync.Mutex { return st.locker(tablePrefix, name) }

func (st *Store) locker(prefix, name string) *sync.Mutex {
	var kb [64]byte
	key := appendBase(kb[:0], prefix, name)
	st.mu.Lock()
	defer st.mu.Unlock()
	lk, ok := st.locks[string(key)]
	if !ok {
		lk = &sync.Mutex{}
		st.locks[string(key)] = lk
	}
	return lk
}

// AppendSession appends one framed request payload to the session's
// log with a single unbuffered write (a crash loses at most this
// frame, and only as a tolerated torn tail). It returns the log's tail
// size so the caller can trigger compaction past CompactBytes.
func (st *Store) AppendSession(id string, payload []byte) (tail int64, err error) {
	tail, _, err = appendTo(st, sessionPrefix, id, payload)
	return tail, err
}

// AppendSessionBody is AppendSession for a payload held as a string: a
// request body as the /rpc handler read it, logged without a copy to
// bytes first.
func (st *Store) AppendSessionBody(id, body string) (tail int64, err error) {
	tail, _, err = appendTo(st, sessionPrefix, id, body)
	return tail, err
}

// AppendTable appends one framed request payload to a table's log and
// reports whether the log is due for CompactTable: its tail has reached
// max(CompactBytes, the last checkpoint's RawBytes). The threshold grows
// with the table, so a table's total rewrite stays O(bytes appended).
func (st *Store) AppendTable(name string, payload []byte) (due bool, err error) {
	return st.tableDue(appendTo(st, tablePrefix, name, payload))
}

// AppendTableBody is AppendTable for a payload held as a string.
func (st *Store) AppendTableBody(name, body string) (due bool, err error) {
	return st.tableDue(appendTo(st, tablePrefix, name, body))
}

func (st *Store) tableDue(tail, ckpt int64, err error) (bool, error) {
	return err == nil && tail >= max(st.compactBytes, ckpt), err
}

// appendTo appends one frame to the log named name (prefix sessionPrefix
// or tablePrefix) and reports the log's tail size and its checkpoint's
// RawBytes. A warm append — its appender cached — allocates nothing: the
// log's key is built on the stack and the frame in the store's buffer.
func appendTo[P ~string | ~[]byte](st *Store, prefix, name string, payload P) (tail, ckpt int64, err error) {
	var kb [64]byte
	key := appendBase(kb[:0], prefix, name)
	st.mu.Lock()
	defer st.mu.Unlock()
	ap, err := st.appenderLocked(key)
	if err != nil {
		return 0, 0, err
	}
	st.frame = appendFrame(st.frame[:0], ap.nextSeq, payload)
	buf := st.frame
	if cap(st.frame) > maxKeptBuffer {
		st.frame = nil
	}
	n, err := ap.f.Write(buf)
	if err != nil {
		// A short write leaves a torn tail in a file we keep appending
		// to; truncate back so the log stays clean mid-file.
		if n > 0 {
			ap.f.Truncate(ap.size)
			ap.f.Seek(ap.size, 0)
		}
		return ap.size, ap.ckptBytes, fmt.Errorf("sessionlog: append %s: %w", string(key), err)
	}
	ap.size += int64(len(buf))
	ap.nextSeq++
	st.stats.AppendedFrames++
	st.stats.AppendedBytes += int64(len(buf))
	st.sinceScan += int64(len(buf))
	st.maybeRetainLocked()
	return ap.size, ap.ckptBytes, nil
}

// appenderLocked returns the cached appender for the log whose file base
// is key, opening the log (healing any torn tail) on a miss and evicting
// the coldest cached appenders past MaxOpenLogs. A hit moves the log to
// the back of the LRU order in place. Caller holds st.mu.
func (st *Store) appenderLocked(key []byte) (*appender, error) {
	if st.closed {
		return nil, fmt.Errorf("sessionlog: store closed")
	}
	if ap, ok := st.appenders[string(key)]; ok {
		for i := len(st.order) - 1; i >= 0; i-- {
			if b := st.order[i]; b == string(key) {
				copy(st.order[i:], st.order[i+1:])
				st.order[len(st.order)-1] = b
				break
			}
		}
		return ap, nil
	}
	base := string(key)
	path := filepath.Join(st.dir, base+".log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	frames, tail, err := parseFrames(data)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sessionlog: %s: %w", base, err)
	}
	size := int64(len(data) - tail)
	if tail > 0 {
		// The torn frame was never acknowledged; drop it so future
		// appends don't bury a tear mid-file.
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("sessionlog: healing %s: %w", base, err)
		}
		st.stats.TornTruncations++
	}
	ap := &appender{f: f, size: size, nextSeq: 1}
	// The checkpoint header continues an empty log's sequence and sets a
	// table's compaction threshold.
	if len(frames) == 0 || strings.HasPrefix(base, tablePrefix) {
		if meta, err := st.checkpointHeader(base); err == nil {
			ap.nextSeq, ap.ckptBytes = meta.LastSeq+1, meta.RawBytes
		}
	}
	if len(frames) > 0 {
		ap.nextSeq = frames[len(frames)-1].Seq + 1
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	st.appenders[base] = ap
	st.order = append(st.order, base)
	for len(st.appenders) > MaxOpenLogs {
		victim := st.order[0]
		st.order = st.order[1:]
		st.appenders[victim].f.Close()
		delete(st.appenders, victim)
	}
	return ap, nil
}

// checkpointHeader reads just the checkpoint's meta (an error if there is
// no checkpoint). Caller holds st.mu.
func (st *Store) checkpointHeader(base string) (CheckpointMeta, error) {
	f, err := os.Open(filepath.Join(st.dir, base+".ckpt"))
	if err != nil {
		return CheckpointMeta{}, err
	}
	defer f.Close()
	meta, _, _, err := readCheckpointHeader(f)
	return meta, err
}

// LoadSession decodes a session's full replayable history: checkpoint
// frames plus the log tail, dedup'd by sequence number. A missing
// session is ErrNoLog; damage beyond a torn tail is ErrTornLog.
// Callers hold the session's locker to keep the load atomic against
// appends.
func (st *Store) LoadSession(id string) (*Replay, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.loadLocked(sessionBase(id))
}

// LoadTable decodes a table log's history.
func (st *Store) LoadTable(name string) (*Replay, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.loadLocked(tableBase(name))
}

func (st *Store) loadLocked(base string) (*Replay, error) {
	rep := &Replay{}
	ckptPath := filepath.Join(st.dir, base+".ckpt")
	if data, err := os.ReadFile(ckptPath); err == nil {
		meta, frames, err := decodeCheckpoint(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ckptPath, err)
		}
		rep.Meta, rep.Frames, rep.LastSeq = &meta, frames, meta.LastSeq
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	logData, err := os.ReadFile(filepath.Join(st.dir, base+".log"))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	if rep.Meta == nil && len(logData) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoLog, base)
	}
	frames, tail, err := parseFrames(logData)
	if err != nil {
		return nil, fmt.Errorf("sessionlog: %s.log: %w", base, err)
	}
	rep.Torn = tail > 0
	for _, fr := range frames {
		if fr.Seq <= rep.LastSeq {
			// Duplicate of a checkpointed frame: a crash landed between
			// the checkpoint rename and the log truncate.
			continue
		}
		if rep.LastSeq != 0 || len(rep.Frames) > 0 {
			if fr.Seq != rep.LastSeq+1 {
				return nil, fmt.Errorf("%w: %s.log: sequence gap (frame %d after %d)",
					ErrTornLog, base, fr.Seq, rep.LastSeq)
			}
		}
		rep.LastSeq = fr.Seq
		rep.Frames = append(rep.Frames, fr)
	}
	return rep, nil
}

// CompactSession folds the session's log tail into its checkpoint
// (atomically, via temp file + rename) and truncates the log. The new
// checkpoint is the old one's segments, copied byte for byte, plus one
// segment compressing the tail's frames as the log holds them: the work
// is the tail's, whatever the history before it. A version-1 checkpoint
// is read whole once and rewritten in segments. The caller holds the
// session's locker and supplies the advisory meta fields; the store
// stamps the coverage fields.
func (st *Store) CompactSession(id string, meta CheckpointMeta) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	base := sessionBase(id)
	ckptPath := filepath.Join(st.dir, base+".ckpt")
	var (
		prev    CheckpointMeta
		ckpt    bool
		old     *os.File // the checkpoint, positioned at its segments
		history []byte   // a version-1 checkpoint's frames, inflated
	)
	if f, err := os.Open(ckptPath); err == nil {
		ckpt = true
		defer f.Close()
		m, _, v1, err := readCheckpointHeader(f)
		if err != nil {
			return fmt.Errorf("%s: %w", ckptPath, err)
		}
		prev, old = m, f
		if v1 {
			data, err := os.ReadFile(ckptPath)
			if err != nil {
				return fmt.Errorf("sessionlog: %w", err)
			}
			var body []byte
			if prev, body, _, err = decodeCheckpointHeader(data); err == nil {
				history, _, err = decodeBodyV1(&prev, body)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", ckptPath, err)
			}
			prev.RawBytes, old = int64(len(history)), nil
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("sessionlog: %w", err)
	}
	tail, err := st.readLogLocked(base)
	if err != nil {
		return err
	}
	if !ckpt && len(tail) == 0 {
		return fmt.Errorf("%w: %s", ErrNoLog, base)
	}
	start, frames, last, err := newFrames(tail, prev.LastSeq)
	if err != nil {
		return fmt.Errorf("sessionlog: %s.log: %w", base, err)
	}
	fresh := tail[start:]
	meta.Session = id
	meta.LastSeq = max(prev.LastSeq, last)
	meta.Frames = prev.Frames + frames
	meta.RawBytes = prev.RawBytes + int64(len(fresh))
	meta.WrittenUnixNS = time.Now().UnixNano()
	head, err := appendCheckpointHeader(nil, &meta)
	if err != nil {
		return fmt.Errorf("sessionlog: encoding checkpoint %s: %w", base, err)
	}
	return st.replaceCheckpointLocked(base, meta, func(w *os.File) error {
		if _, err := w.Write(head); err != nil {
			return err
		}
		if old != nil {
			// copy_file_range where the filesystem has it: the earlier
			// segments never pass through this process.
			if _, err := io.Copy(w, old); err != nil {
				return err
			}
		}
		if err := st.segs.write(w, history); err != nil {
			return err
		}
		return st.segs.write(w, fresh)
	})
}

// readLogLocked reads base's log into the store's tail buffer; a missing
// log reads empty. Caller holds st.mu.
func (st *Store) readLogLocked(base string) ([]byte, error) {
	f, err := os.Open(filepath.Join(st.dir, base+".log"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	if int64(cap(st.tail)) < fi.Size() {
		st.tail = make([]byte, fi.Size())
	}
	buf := st.tail[:fi.Size()]
	if cap(st.tail) > maxKeptBuffer {
		st.tail = nil
	}
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	return buf[:n], nil
}

// newFrames checks a session log's frames against the checkpoint, which
// ends at sequence number ckptSeq (0 for none), and locates the ones
// past it: they start at byte start and run to the end of log, frames of
// them ending at sequence number last. Frames at or before ckptSeq — left
// by a crash between a checkpoint's rename and the log's truncate — may
// only come first. A torn tail, or a frame out of sequence, is
// ErrTornLog: compaction refuses to fold either into a checkpoint.
func newFrames(log []byte, ckptSeq uint64) (start, frames int, last uint64, err error) {
	start, last = len(log), ckptSeq
	for pos := 0; pos < len(log); {
		fr, n, err := frameAt(log, pos)
		if err != nil {
			return 0, 0, 0, err
		}
		if n == 0 {
			return 0, 0, 0, fmt.Errorf("%w: refusing to compact a torn tail", ErrTornLog)
		}
		switch {
		case frames == 0 && fr.Seq <= ckptSeq:
			// A duplicate of a checkpointed frame.
		case frames == 0 && (ckptSeq == 0 || fr.Seq == ckptSeq+1), fr.Seq == last+1:
			if frames == 0 {
				start = pos
			}
			frames++
			last = fr.Seq
		default:
			return 0, 0, 0, fmt.Errorf("%w: sequence gap (frame %d after %d)", ErrTornLog, fr.Seq, last)
		}
		pos += n
	}
	return start, frames, last, nil
}

// CompactTable replaces a table's history with snapshot, one append
// request carrying the whole table: it becomes the table's checkpoint, at
// the log's last sequence number, and the log empties. The caller holds
// the table's locker.
func (st *Store) CompactTable(name string, snapshot []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	base := tableBase(name)
	ap, err := st.appenderLocked([]byte(base))
	if err != nil {
		return err
	}
	seq := ap.nextSeq - 1
	return st.writeCheckpointLocked(base, CheckpointMeta{Table: name, LastSeq: seq}, []Frame{{Seq: seq, Payload: snapshot}})
}

// writeCheckpointLocked writes a table's checkpoint: the one frame
// holding its snapshot, ending at meta.LastSeq.
func (st *Store) writeCheckpointLocked(base string, meta CheckpointMeta, frames []Frame) error {
	meta.WrittenUnixNS = time.Now().UnixNano()
	img, err := encodeCheckpoint(&meta, frames)
	if err != nil {
		return fmt.Errorf("sessionlog: encoding checkpoint %s: %w", base, err)
	}
	return st.replaceCheckpointLocked(base, meta, func(w *os.File) error {
		_, err := w.Write(img)
		return err
	})
}

// replaceCheckpointLocked is the one checkpoint installer: write fills a
// temp file, which is renamed over base's checkpoint, and the log the
// checkpoint now covers is truncated.
func (st *Store) replaceCheckpointLocked(base string, meta CheckpointMeta, write func(*os.File) error) error {
	path := filepath.Join(st.dir, base+".ckpt")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("sessionlog: %w", err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sessionlog: writing checkpoint %s: %w", base, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sessionlog: %w", err)
	}
	// The log's frames are now covered by the checkpoint; a crash right
	// here leaves duplicates that loadLocked skips by sequence number.
	if ap, ok := st.appenders[base]; ok {
		if err := ap.f.Truncate(0); err != nil {
			return fmt.Errorf("sessionlog: truncating %s: %w", base, err)
		}
		if _, err := ap.f.Seek(0, 0); err != nil {
			return fmt.Errorf("sessionlog: %w", err)
		}
		ap.size, ap.ckptBytes = 0, meta.RawBytes
	} else if err := os.Truncate(filepath.Join(st.dir, base+".log"), 0); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("sessionlog: truncating %s: %w", base, err)
	}
	st.stats.Compactions++
	return nil
}

// Park closes the session's cached appender, keeping its files: the
// session stays resumable (Manager eviction parks; only a wire evict
// removes).
func (st *Store) Park(id string) {
	st.mu.Lock()
	st.closeAppenderLocked(sessionBase(id))
	st.mu.Unlock()
}

// RemoveSession deletes the session's log and checkpoint — it is no
// longer resumable. A fresh open of the same id also removes, giving
// the id a clean history.
func (st *Store) RemoveSession(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	base := sessionBase(id)
	st.closeAppenderLocked(base)
	var first error
	for _, suffix := range []string{".log", ".ckpt"} {
		if err := os.Remove(filepath.Join(st.dir, base+suffix)); err != nil && !os.IsNotExist(err) && first == nil {
			first = err
		}
	}
	return first
}

func (st *Store) closeAppenderLocked(base string) {
	ap, ok := st.appenders[base]
	if !ok {
		return
	}
	ap.f.Close()
	delete(st.appenders, base)
	for i, b := range st.order {
		if b == base {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// Sessions lists every session id with persisted state, sorted.
func (st *Store) Sessions() []string { return st.list(sessionPrefix) }

// Tables lists every table with a persisted log, sorted.
func (st *Store) Tables() []string { return st.list(tablePrefix) }

func (st *Store) list(prefix string) []string {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, e := range entries {
		base, ok := logBase(e.Name())
		if !ok || !strings.HasPrefix(base, prefix) {
			continue
		}
		id, ok := unescapeName(base[len(prefix):])
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SessionBytes reports the session's total on-disk footprint (log +
// checkpoint) and its log tail alone.
func (st *Store) SessionBytes(id string) (total, tail int64) {
	base := sessionBase(id)
	if fi, err := os.Stat(filepath.Join(st.dir, base+".log")); err == nil {
		tail = fi.Size()
		total += fi.Size()
	}
	if fi, err := os.Stat(filepath.Join(st.dir, base+".ckpt")); err == nil {
		total += fi.Size()
	}
	return total, tail
}

// Stats snapshots the store's counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.OpenLogs = len(st.appenders)
	return s
}

// Close closes every cached appender. Appends fail afterwards; reads
// still work (the files are the durable artifact).
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, ap := range st.appenders {
		ap.f.Close()
	}
	st.appenders = make(map[string]*appender)
	st.order = nil
	st.closed = true
	return nil
}

// maybeRetainLocked enforces the retention budget: when the directory
// exceeds RetainBytes, the oldest session file pairs that are neither
// open for append nor protected are deleted (those sessions lose
// resumability). Table logs count toward the total but are never
// deleted — they are the data, not a cache of it. Scans are amortized:
// one directory walk per ~1/8 budget of appended bytes.
func (st *Store) maybeRetainLocked() {
	if st.retainBytes <= 0 {
		return
	}
	threshold := st.retainBytes / 8
	if threshold < 4096 {
		threshold = 4096
	}
	if st.sinceScan < threshold {
		return
	}
	st.sinceScan = 0
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	type pair struct {
		base  string
		bytes int64
		mtime time.Time
	}
	pairs := make(map[string]*pair)
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		total += info.Size()
		base, ok := logBase(e.Name())
		if !ok || !strings.HasPrefix(base, sessionPrefix) {
			continue
		}
		p, ok := pairs[base]
		if !ok {
			p = &pair{base: base}
			pairs[base] = p
		}
		p.bytes += info.Size()
		if info.ModTime().After(p.mtime) {
			p.mtime = info.ModTime()
		}
	}
	if total <= st.retainBytes {
		return
	}
	victims := make([]*pair, 0, len(pairs))
	for _, p := range pairs {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].mtime.Before(victims[j].mtime) })
	for _, p := range victims {
		if total <= st.retainBytes {
			break
		}
		if _, open := st.appenders[p.base]; open {
			continue
		}
		if st.protect != nil {
			if id, ok := unescapeName(strings.TrimPrefix(p.base, sessionPrefix)); ok && st.protect(id) {
				continue
			}
		}
		os.Remove(filepath.Join(st.dir, p.base+".log"))
		os.Remove(filepath.Join(st.dir, p.base+".ckpt"))
		total -= p.bytes
		st.stats.DroppedSessions++
	}
}

// File naming: "s-<escaped id>.log/.ckpt" for sessions, "t-<escaped
// name>.log/.ckpt" for tables. Escaping is conservative %XX so arbitrary
// ids round-trip through the filesystem.
const (
	sessionPrefix = "s-"
	tablePrefix   = "t-"
)

func sessionBase(id string) string { return sessionPrefix + escapeName(id) }
func tableBase(name string) string { return tablePrefix + escapeName(name) }

// appendBase appends the file base of the log named name to dst.
func appendBase(dst []byte, prefix, name string) []byte {
	return appendEscaped(append(dst, prefix...), name)
}

// logBase strips a directory entry's ".log" or ".ckpt" suffix.
func logBase(name string) (string, bool) {
	if base, ok := strings.CutSuffix(name, ".log"); ok {
		return base, true
	}
	return strings.CutSuffix(name, ".ckpt")
}

// plainByte reports whether c stands for itself in a file name.
func plainByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '-' || c == '_' || c == '.'
}

func escapeName(s string) string {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return string(appendEscaped(nil, s))
		}
	}
	return s
}

func appendEscaped(dst []byte, s string) []byte {
	const hex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		if c := s[i]; plainByte(c) {
			dst = append(dst, c)
		} else {
			dst = append(dst, '%', hex[c>>4], hex[c&15])
		}
	}
	return dst
}

func unescapeName(s string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", false
		}
		var c byte
		if _, err := fmt.Sscanf(s[i+1:i+3], "%02X", &c); err != nil {
			return "", false
		}
		b.WriteByte(c)
		i += 2
	}
	return b.String(), true
}
