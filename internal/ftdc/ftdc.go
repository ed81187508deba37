// Package ftdc implements a flight recorder for engine telemetry,
// modeled on MongoDB's full-time diagnostic data capture: a sampler
// captures every session/storage gauge on a fixed tick into
// delta-of-delta + varint-compressed columnar chunks with bounded
// on-disk retention, so an operator can diagnose an incident after the
// fact without having had any monitoring attached at the time.
//
// The capture is exact: every gauge is an int64 and the codec
// round-trips values bit-for-bit (wrapping arithmetic, no floats), so a
// decoded capture is the ground truth of what the engine observed, not
// an approximation. Rates (e.g. kernel GB/s) are captured as cumulative
// counters and differentiated by the reader.
//
// On-disk layout: a capture directory holds ftdc-NNNNNNNN.bin files,
// each a sequence of length-prefixed chunks. One chunk is a columnar
// block of up to MaxChunkSamples ticks sharing one metric schema:
//
//	u32 LE  payload length
//	u8      magic 0xFD
//	u8      version (1)
//	uvarint metric count
//	uvarint sample count
//	        per metric: uvarint name length + name bytes
//	        per metric column:
//	          zigzag varint  reference (first sample's value)
//	          then per subsequent sample, delta-of-delta zigzag varint;
//	          a zero (byte 0x00) is followed by a uvarint counting how
//	          many additional consecutive zeros it stands for (run
//	          length), which is what makes near-constant gauges nearly
//	          free.
//
// A schema change (metric added or removed) closes the current chunk and
// starts a new one, so readers never guess at column identity.
package ftdc

import (
	"encoding/binary"
	"fmt"
)

const (
	chunkMagic   = 0xFD
	chunkVersion = 1

	// maxChunkBytes bounds one decoded chunk allocation. Captures travel
	// between machines, so the decoder treats files as a trust boundary.
	maxChunkBytes = 8 << 20
	// maxChunkMetrics bounds the schema width a decoder will accept.
	maxChunkMetrics = 1 << 12
	// maxChunkSamplesLimit bounds the sample count a decoder will accept
	// (far above any sane recorder configuration).
	maxChunkSamplesLimit = 1 << 20
)

// Chunk is one decoded columnar block: len(Columns) == len(Names), and
// every column holds the same number of samples.
type Chunk struct {
	Names   []string
	Columns [][]int64
}

// SampleCount returns the number of ticks the chunk holds.
func (c Chunk) SampleCount() int {
	if len(c.Columns) == 0 {
		return 0
	}
	return len(c.Columns[0])
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendColumn encodes one metric column: reference value, then
// delta-of-delta residuals with zero run-length coding. All arithmetic
// wraps, so MinInt64/MaxInt64 excursions round-trip exactly.
func appendColumn(dst []byte, col []int64) []byte {
	dst = binary.AppendUvarint(dst, zigzag(col[0]))
	prev, prevDelta := col[0], int64(0)
	zeros := uint64(0)
	flush := func() {
		if zeros > 0 {
			dst = append(dst, 0x00)
			dst = binary.AppendUvarint(dst, zeros-1)
			zeros = 0
		}
	}
	for _, v := range col[1:] {
		delta := v - prev
		dd := delta - prevDelta
		prev, prevDelta = v, delta
		if dd == 0 {
			zeros++
			continue
		}
		flush()
		dst = binary.AppendUvarint(dst, zigzag(dd))
	}
	flush()
	return dst
}

// appendChunk encodes one chunk payload (without the length prefix).
func appendChunk(dst []byte, names []string, cols [][]int64) []byte {
	dst = append(dst, chunkMagic, chunkVersion)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	samples := 0
	if len(cols) > 0 {
		samples = len(cols[0])
	}
	dst = binary.AppendUvarint(dst, uint64(samples))
	for _, name := range names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	for _, col := range cols {
		if samples > 0 {
			dst = appendColumn(dst, col)
		}
	}
	return dst
}

// chunkReader walks a payload with bounds checks; every read error is
// sticky, so decode paths check once at the end of a section.
type chunkReader struct {
	buf []byte
	pos int
	err error
}

func (r *chunkReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *chunkReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("ftdc: truncated chunk at byte %d", r.pos)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *chunkReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("ftdc: bad varint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *chunkReader) str(n uint64) string {
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.pos) {
		r.fail("ftdc: string of %d bytes overruns chunk", n)
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// decodeChunk decodes one chunk payload. Inputs are untrusted: every
// bound is checked and allocations are capped before they happen.
func decodeChunk(payload []byte) (Chunk, error) {
	if len(payload) > maxChunkBytes {
		return Chunk{}, fmt.Errorf("ftdc: chunk of %d bytes exceeds limit %d", len(payload), maxChunkBytes)
	}
	r := &chunkReader{buf: payload}
	if m := r.byte(); r.err == nil && m != chunkMagic {
		return Chunk{}, fmt.Errorf("ftdc: bad chunk magic 0x%02x", m)
	}
	if v := r.byte(); r.err == nil && (v < 1 || v > chunkVersion) {
		return Chunk{}, fmt.Errorf("ftdc: unsupported chunk version %d (speaking %d)", v, chunkVersion)
	}
	metrics := r.uvarint()
	samples := r.uvarint()
	if r.err != nil {
		return Chunk{}, r.err
	}
	if metrics == 0 || metrics > maxChunkMetrics {
		return Chunk{}, fmt.Errorf("ftdc: chunk claims %d metrics (limit %d)", metrics, maxChunkMetrics)
	}
	if samples > maxChunkSamplesLimit {
		return Chunk{}, fmt.Errorf("ftdc: chunk claims %d samples (limit %d)", samples, maxChunkSamplesLimit)
	}
	// Every metric costs at least one name-length byte, and every sample
	// at least one payload byte per metric unless zero-run-coded; the
	// loose guard below still rejects wildly lying headers before the
	// column allocation.
	if metrics > uint64(len(payload)) {
		return Chunk{}, fmt.Errorf("ftdc: %d metrics in a %d-byte chunk", metrics, len(payload))
	}
	c := Chunk{
		Names:   make([]string, metrics),
		Columns: make([][]int64, metrics),
	}
	for i := range c.Names {
		c.Names[i] = r.str(r.uvarint())
	}
	if r.err != nil {
		return Chunk{}, r.err
	}
	for i := range c.Columns {
		col, err := r.column(int(samples))
		if err != nil {
			return Chunk{}, err
		}
		c.Columns[i] = col
	}
	if r.pos != len(payload) {
		return Chunk{}, fmt.Errorf("ftdc: %d trailing bytes after chunk", len(payload)-r.pos)
	}
	return c, nil
}

// column decodes one metric column of n samples.
func (r *chunkReader) column(n int) ([]int64, error) {
	if n == 0 {
		return nil, nil
	}
	col := make([]int64, 0, n)
	v := unzigzag(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	col = append(col, v)
	delta := int64(0)
	for len(col) < n {
		dd := unzigzag(r.uvarint())
		if r.err != nil {
			return nil, r.err
		}
		if dd == 0 {
			run := r.uvarint() + 1
			if r.err != nil {
				return nil, r.err
			}
			if run > uint64(n-len(col)) {
				return nil, fmt.Errorf("ftdc: zero run of %d overruns column of %d", run, n)
			}
			for j := uint64(0); j < run; j++ {
				v += delta
				col = append(col, v)
			}
			continue
		}
		delta += dd
		v += delta
		col = append(col, v)
	}
	return col, nil
}
