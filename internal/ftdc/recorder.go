package ftdc

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Defaults for Options zero values.
const (
	// DefaultInterval is the sampler tick.
	DefaultInterval = time.Second
	// DefaultChunkSamples closes a chunk after this many ticks (5 minutes
	// at the default interval), bounding both replay granularity and how
	// much capture a crash can lose.
	DefaultChunkSamples = 300
	// DefaultRetainBytes bounds the whole capture directory.
	DefaultRetainBytes = 64 << 20
)

// Options configures a Recorder. Zero values take the defaults above.
type Options struct {
	// Dir is the capture directory; created if absent. Required.
	Dir string
	// MaxChunkSamples closes a chunk after this many recorded ticks.
	MaxChunkSamples int
	// MaxFileBytes rotates to a new capture file once the current one
	// exceeds this size. It is clamped to RetainBytes/4 so retention
	// always has at least a few files to delete — a single file as large
	// as the whole budget could never be trimmed without losing
	// everything.
	MaxFileBytes int64
	// RetainBytes bounds the total size of closed capture files; the
	// oldest files are deleted first. The directory itself is bounded by
	// RetainBytes + MaxFileBytes + one chunk.
	RetainBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxChunkSamples <= 0 {
		o.MaxChunkSamples = DefaultChunkSamples
	}
	if o.RetainBytes <= 0 {
		o.RetainBytes = DefaultRetainBytes
	}
	if o.MaxFileBytes <= 0 {
		o.MaxFileBytes = 1 << 20
	}
	if o.MaxFileBytes > o.RetainBytes/4 {
		o.MaxFileBytes = o.RetainBytes / 4
		if o.MaxFileBytes < 1 {
			o.MaxFileBytes = 1
		}
	}
	return o
}

// RecorderStats counts what the recorder has done. Recorder.Stats reports
// it to the recorder's owner; the capture itself does not record it.
type RecorderStats struct {
	Samples       int64 // ticks recorded
	ChunksWritten int64 // chunks flushed to disk
	BytesWritten  int64 // compressed bytes written
	FilesRemoved  int64 // capture files deleted by retention
}

// Recorder accumulates samples into columnar chunks and writes them to a
// bounded capture directory. Safe for concurrent use; Record is cheap
// (no I/O) except on the tick that closes a chunk.
type Recorder struct {
	mu        sync.Mutex
	opts      Options
	names     []string
	cols      [][]int64
	samples   int
	f         *os.File
	fileBytes int64
	seq       int
	buf       []byte
	stats     RecorderStats
	closed    bool
}

// NewRecorder opens (creating if needed) the capture directory and
// starts a fresh capture file after any existing ones, so restarts never
// overwrite history — retention trims it like everything else.
func NewRecorder(opts Options) (*Recorder, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("ftdc: capture directory not set")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ftdc: %w", err)
	}
	r := &Recorder{opts: opts}
	files, err := captureFiles(opts.Dir)
	if err != nil {
		return nil, err
	}
	if n := len(files); n > 0 {
		fmt.Sscanf(filepath.Base(files[n-1].name), "ftdc-%08d.bin", &r.seq)
	}
	return r, nil
}

// Record appends one tick. names and values are parallel; a schema
// change (names differing from the previous tick) closes the current
// chunk so every chunk is internally consistent. The slices are copied —
// callers may reuse them.
func (r *Recorder) Record(names []string, values []int64) error {
	if len(names) != len(values) || len(names) == 0 {
		return fmt.Errorf("ftdc: %d names for %d values", len(names), len(values))
	}
	if len(names) > maxChunkMetrics {
		return fmt.Errorf("ftdc: %d metrics exceeds limit %d", len(names), maxChunkMetrics)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("ftdc: recorder closed")
	}
	if !sameSchema(r.names, names) {
		if err := r.flushLocked(); err != nil {
			return err
		}
		r.names = append([]string(nil), names...)
		r.cols = make([][]int64, len(names))
	}
	for i, v := range values {
		r.cols[i] = append(r.cols[i], v)
	}
	r.samples++
	r.stats.Samples++
	if r.samples >= r.opts.MaxChunkSamples {
		return r.flushLocked()
	}
	return nil
}

func sameSchema(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Flush writes any partial chunk to disk — called on shutdown and on
// operator signal, so an incident capture is never missing its last
// minutes.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flushLocked()
}

// Stats snapshots the recorder's own counters.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close flushes and closes the current capture file.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := r.flushLocked()
	if r.f != nil {
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
		r.f = nil
	}
	r.closed = true
	return err
}

func (r *Recorder) flushLocked() error {
	if r.samples == 0 {
		return nil
	}
	r.buf = r.buf[:0]
	r.buf = binary.LittleEndian.AppendUint32(r.buf, 0) // placeholder
	r.buf = appendChunk(r.buf, r.names, r.cols)
	binary.LittleEndian.PutUint32(r.buf[:4], uint32(len(r.buf)-4))

	if r.f != nil && r.fileBytes+int64(len(r.buf)) > r.opts.MaxFileBytes {
		if err := r.f.Close(); err != nil {
			return fmt.Errorf("ftdc: %w", err)
		}
		r.f = nil
	}
	if r.f == nil {
		r.seq++
		name := filepath.Join(r.opts.Dir, fmt.Sprintf("ftdc-%08d.bin", r.seq))
		f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("ftdc: %w", err)
		}
		r.f = f
		r.fileBytes = 0
		if err := r.enforceRetentionLocked(); err != nil {
			return err
		}
	}
	if _, err := r.f.Write(r.buf); err != nil {
		return fmt.Errorf("ftdc: %w", err)
	}
	r.fileBytes += int64(len(r.buf))
	r.stats.ChunksWritten++
	r.stats.BytesWritten += int64(len(r.buf))
	for i := range r.cols {
		r.cols[i] = r.cols[i][:0]
	}
	r.samples = 0
	return nil
}

// enforceRetentionLocked deletes the oldest closed capture files until
// everything but the file being written fits RetainBytes.
func (r *Recorder) enforceRetentionLocked() error {
	files, err := captureFiles(r.opts.Dir)
	if err != nil {
		return err
	}
	var total int64
	for _, f := range files {
		total += f.size
	}
	cur := fmt.Sprintf("ftdc-%08d.bin", r.seq)
	for _, f := range files {
		if total <= r.opts.RetainBytes {
			break
		}
		if filepath.Base(f.name) == cur {
			break // never delete the live file
		}
		if err := os.Remove(f.name); err != nil {
			return fmt.Errorf("ftdc: retention: %w", err)
		}
		total -= f.size
		r.stats.FilesRemoved++
	}
	return nil
}

type captureFile struct {
	name string
	size int64
}

// captureFiles lists ftdc-*.bin in the directory, oldest (lowest
// sequence) first.
func captureFiles(dir string) ([]captureFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ftdc: %w", err)
	}
	var files []captureFile
	for _, e := range entries {
		var seq int
		if n, _ := fmt.Sscanf(e.Name(), "ftdc-%08d.bin", &seq); n != 1 {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with retention
		}
		files = append(files, captureFile{name: filepath.Join(dir, e.Name()), size: info.Size()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].name < files[j].name })
	return files, nil
}
