package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"dbtouch/internal/core"
)

// Binary columnar result frames — the v2 wire encoding of result
// streams. JSON/NDJSON boxes every value ("agg":12.5 costs ~12 bytes
// plus the key); at millions of subscribers the wire cost of boxing
// dominates the server. A binary frame instead ships one run of results
// that share (object, kind) as typed columns:
//
//	frame   := u32 LE payloadLen | payload         (length-prefixed)
//	payload := magic 0xDB | bver u8 | fkind u8 | rkind u8
//	           session (uvarint len + bytes)
//	           objectID uvarint | epoch uvarint | count uvarint
//	           sections*
//	section := tag u8 | uvarint byteLen | bytes
//
// Integer columns (tuple ids, windows, times) encode as zigzag varints,
// delta-coded against the previous row where values are near-monotone
// (tuple ids under a slide advance by the touch gap; times are
// nondecreasing), so a typical row costs 1-2 bytes per live column.
// Float columns (the aggregate) ship as raw little-endian IEEE754 —
// exact, and already only 8 bytes. String columns (scan values, group
// keys) are length-prefixed UTF-8. A section whose rows are all
// zero/empty is omitted entirely and decodes back as zeros, so a scan
// frame never pays for group keys and an aggregate frame never pays for
// strings.
//
// The decoder is a trust boundary: every length is bounded before
// allocation (MaxBinaryFrameBytes for the payload, MaxBinaryFrameResults
// for the row count), truncated or corrupt input returns an error, and
// unknown section tags are skipped by their declared length so the
// format can grow columns without breaking old readers.
//
// JSON/NDJSON remains the v1 fallback and the record/replay ground
// truth: DecodeBinaryFrame yields exactly the ResultFrame values
// FrameResults would have produced (asserted by TestBinaryRoundTrip).

// Binary framing constants.
const (
	// binaryMagic is the first payload byte of every binary frame.
	binaryMagic = 0xDB
	// BinaryVersion is the binary frame format version.
	BinaryVersion = 1
	// frameKindResults marks a frame carrying result rows. Other frame
	// kinds may be added; decoders reject kinds they do not know.
	frameKindResults = 1

	// MaxBinaryFrameBytes bounds one frame payload; a length prefix past
	// it is rejected before any allocation.
	MaxBinaryFrameBytes = 16 << 20
	// MaxBinaryFrameResults bounds the row count one frame may declare,
	// capping decoder allocation at a few MB even for adversarial input.
	MaxBinaryFrameResults = 1 << 16
)

// BinaryContentType is the negotiated content type for binary framed
// streams; NDJSONContentType is the v1 fallback.
const (
	BinaryContentType = "application/x-dbtouch-bin"
	NDJSONContentType = "application/x-ndjson"
)

// Column section tags.
const (
	secTupleID  = 1  // zigzag delta varint
	secCol      = 2  // zigzag varint
	secAgg      = 3  // raw float64 LE × count
	secN        = 4  // zigzag varint
	secWindowLo = 5  // zigzag delta varint
	secWindowHi = 6  // zigzag delta varint
	secLevel    = 7  // zigzag varint
	secTime     = 8  // zigzag delta varint (ns)
	secFadeAt   = 9  // zigzag delta varint (ns)
	secLatency  = 10 // zigzag delta varint (ns)
	secValue    = 11 // uvarint len + bytes per row
	secGroupKey = 12 // uvarint len + bytes per row
	secMatches  = 13 // zigzag varint
)

// BinaryFrameHeader carries the per-frame provenance every row shares.
type BinaryFrameHeader struct {
	// Session is the emitting session id (empty for direct encodes).
	Session string
	// ObjectID is the kernel object every row belongs to.
	ObjectID int
	// Epoch is the live-table snapshot epoch the rows were produced
	// against (0 when the object is not live or the epoch is unknown).
	Epoch uint64
	// Kind is the shared result kind (the ResultFrame kind string).
	Kind string
}

// zigzag maps a signed value to an unsigned one with small absolute
// values staying small.
func zigzag(v int64) uint64 { return uint64(v)<<1 ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendSection appends one section — tag, uvarint byte length, bytes —
// where fill appends the bytes and reports whether any row was non-zero;
// a section with no live row is left out. The bytes are written in place
// behind a reserved length and moved down once it is known, so a frame
// needs no buffer of its own.
func appendSection(dst []byte, tag byte, fill func([]byte) ([]byte, bool)) []byte {
	start := len(dst)
	dst = append(dst, tag)
	dst = append(dst, make([]byte, binary.MaxVarintLen64)...)
	body := len(dst)
	dst, live := fill(dst)
	if !live {
		return dst[:start]
	}
	n := len(dst) - body
	k := binary.PutUvarint(dst[start+1:], uint64(n))
	copy(dst[start+1+k:], dst[body:])
	return dst[:start+1+k+n]
}

// appendIntSection appends an integer section: one zigzag varint per
// row, delta-coded against the previous row when delta is set. always
// keeps an all-zero section.
func appendIntSection(dst []byte, tag byte, delta, always bool, run []core.Result, field func(*core.Result) int64) []byte {
	return appendSection(dst, tag, func(dst []byte) ([]byte, bool) {
		live, prev := always, int64(0)
		for i := range run {
			v := field(&run[i])
			enc := v
			if delta {
				enc, prev = v-prev, v
			}
			live = live || v != 0
			if u := zigzag(enc); u < 0x80 {
				dst = append(dst, byte(u)) // most rows: AppendUvarint's first byte, inline
			} else {
				dst = binary.AppendUvarint(dst, u)
			}
		}
		return dst, live
	})
}

// appendStrSection appends a string section: each row's text, as
// render appends it, prefixed by its uvarint length. The length takes one
// byte below 128; a longer text moves up to make room for more.
func appendStrSection(dst []byte, tag byte, run []core.Result, render func([]byte, *core.Result) []byte) []byte {
	return appendSection(dst, tag, func(dst []byte) ([]byte, bool) {
		live := false
		for i := range run {
			start := len(dst)
			dst = render(append(dst, 0), &run[i])
			n := len(dst) - start - 1
			if n < 0x80 {
				dst[start] = byte(n)
			} else {
				var l [binary.MaxVarintLen64]byte
				k := binary.PutUvarint(l[:], uint64(n))
				dst = append(dst, l[1:k]...)
				copy(dst[start+k:], dst[start+1:start+1+n])
				copy(dst[start:], l[:k])
			}
			live = live || n > 0
		}
		return dst, live
	})
}

// AppendBinaryResults encodes results as binary frames appended to dst.
// Consecutive results sharing (ObjectID, Kind) form one columnar frame;
// a stream of interleaved objects produces one frame per run. Epoch
// stamps every produced frame (pass 0 when unknown). Frames are written
// straight into dst: with room there, encoding allocates nothing for scan,
// aggregate, summary and group results.
func AppendBinaryResults(dst []byte, session string, epoch uint64, results []core.Result) []byte {
	for len(results) > 0 {
		run := 1
		for run < len(results) && run < MaxBinaryFrameResults &&
			results[run].ObjectID == results[0].ObjectID && results[run].Kind == results[0].Kind {
			run++
		}
		dst = appendBinaryFrame(dst, session, epoch, results[:run])
		results = results[run:]
	}
	return dst
}

// appendBinaryFrame encodes one run (same object, same kind).
func appendBinaryFrame(dst []byte, session string, epoch uint64, run []core.Result) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // the payload length, set once known
	dst = append(dst, binaryMagic, BinaryVersion, frameKindResults, byte(run[0].Kind))
	dst = binary.AppendUvarint(dst, uint64(len(session)))
	dst = append(dst, session...)
	dst = binary.AppendUvarint(dst, uint64(run[0].ObjectID))
	dst = binary.AppendUvarint(dst, epoch)
	dst = binary.AppendUvarint(dst, uint64(len(run)))

	// The tuple-id section is always emitted, even all-zero: it gives
	// every legitimate frame at least one payload byte per row, which is
	// the invariant the decoder's allocation guard (count ≤ payload
	// bytes) rests on.
	dst = appendIntSection(dst, secTupleID, true, true, run, func(r *core.Result) int64 { return int64(r.TupleID) })
	dst = appendIntSection(dst, secCol, false, false, run, func(r *core.Result) int64 { return int64(r.Col) })
	dst = appendSection(dst, secAgg, func(dst []byte) ([]byte, bool) {
		live := false
		for i := range run {
			bits := math.Float64bits(run[i].Agg)
			live = live || bits != 0
			dst = binary.LittleEndian.AppendUint64(dst, bits)
		}
		return dst, live
	})
	dst = appendIntSection(dst, secN, false, false, run, func(r *core.Result) int64 { return r.N })
	dst = appendIntSection(dst, secWindowLo, true, false, run, func(r *core.Result) int64 { return int64(r.WindowLo) })
	dst = appendIntSection(dst, secWindowHi, true, false, run, func(r *core.Result) int64 { return int64(r.WindowHi) })
	dst = appendIntSection(dst, secLevel, false, false, run, func(r *core.Result) int64 { return int64(r.Level) })
	dst = appendIntSection(dst, secTime, true, false, run, func(r *core.Result) int64 { return int64(r.Time) })
	dst = appendIntSection(dst, secFadeAt, true, false, run, func(r *core.Result) int64 { return int64(r.FadeAt) })
	dst = appendIntSection(dst, secLatency, true, false, run, func(r *core.Result) int64 { return int64(r.Latency) })
	dst = appendStrSection(dst, secValue, run, func(dst []byte, r *core.Result) []byte {
		// The wire carries the rendered value — same contract as
		// FrameResult, which renders only scan and tuple kinds.
		switch r.Kind {
		case core.ScanValue:
			return r.Value.AppendString(dst)
		case core.TuplePeek:
			return fmt.Appendf(dst, "%v", r.Tuple)
		}
		return dst
	})
	dst = appendStrSection(dst, secGroupKey, run, func(dst []byte, r *core.Result) []byte { return append(dst, r.GroupKey...) })
	dst = appendIntSection(dst, secMatches, false, false, run, func(r *core.Result) int64 { return int64(len(r.Matches)) })

	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// binReader walks one frame payload with bounds checking on every read.
type binReader struct {
	buf []byte
	pos int
}

func (r *binReader) len() int { return len(r.buf) - r.pos }

func (r *binReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("protocol: binary frame truncated at byte %d", r.pos)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("protocol: binary frame: bad varint at byte %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	u, err := r.uvarint()
	return unzigzag(u), err
}

func (r *binReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.len() < n {
		return nil, fmt.Errorf("protocol: binary frame: need %d bytes at %d, have %d", n, r.pos, r.len())
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// decodeIntSection fills out[i] for each row from a zigzag varint
// section, undoing delta coding when delta is set.
func decodeIntSection(data []byte, count int, delta bool, set func(i int, v int64)) error {
	r := binReader{buf: data}
	var prev int64
	for i := 0; i < count; i++ {
		v, err := r.varint()
		if err != nil {
			return err
		}
		if delta {
			v += prev
			prev = v
		}
		set(i, v)
	}
	if r.len() != 0 {
		return fmt.Errorf("protocol: binary frame: %d trailing bytes in section", r.len())
	}
	return nil
}

// decodeStrSection fills out[i] from a length-prefixed string section.
func decodeStrSection(data []byte, count int, set func(i int, s string)) error {
	r := binReader{buf: data}
	for i := 0; i < count; i++ {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(r.len()) {
			return fmt.Errorf("protocol: binary frame: string of %d bytes exceeds section", n)
		}
		b, err := r.bytes(int(n))
		if err != nil {
			return err
		}
		set(i, string(b))
	}
	if r.len() != 0 {
		return fmt.Errorf("protocol: binary frame: %d trailing bytes in string section", r.len())
	}
	return nil
}

// DecodeBinaryFrame decodes one frame payload (the bytes after the u32
// length prefix) into its header and rows. The rows are exactly what
// FrameResults would have rendered for the same results — the byte
// equivalence the version gate guarantees.
func DecodeBinaryFrame(payload []byte) (BinaryFrameHeader, []ResultFrame, error) {
	var hdr BinaryFrameHeader
	if len(payload) > MaxBinaryFrameBytes {
		return hdr, nil, fmt.Errorf("protocol: binary frame payload %d bytes exceeds cap %d", len(payload), MaxBinaryFrameBytes)
	}
	r := binReader{buf: payload}
	magic, err := r.byte()
	if err != nil {
		return hdr, nil, err
	}
	if magic != binaryMagic {
		return hdr, nil, fmt.Errorf("protocol: binary frame: bad magic 0x%02x", magic)
	}
	ver, err := r.byte()
	if err != nil {
		return hdr, nil, err
	}
	if ver < 1 || ver > BinaryVersion {
		return hdr, nil, fmt.Errorf("protocol: unsupported binary frame version %d (speaking %d)", ver, BinaryVersion)
	}
	fkind, err := r.byte()
	if err != nil {
		return hdr, nil, err
	}
	if fkind != frameKindResults {
		return hdr, nil, fmt.Errorf("protocol: unknown binary frame kind %d", fkind)
	}
	rkind, err := r.byte()
	if err != nil {
		return hdr, nil, err
	}
	hdr.Kind = core.ResultKind(rkind).String()
	sessLen, err := r.uvarint()
	if err != nil {
		return hdr, nil, err
	}
	if sessLen > uint64(r.len()) {
		return hdr, nil, fmt.Errorf("protocol: binary frame: session of %d bytes exceeds payload", sessLen)
	}
	sess, err := r.bytes(int(sessLen))
	if err != nil {
		return hdr, nil, err
	}
	hdr.Session = string(sess)
	objectID, err := r.uvarint()
	if err != nil {
		return hdr, nil, err
	}
	if objectID > math.MaxInt32 {
		return hdr, nil, fmt.Errorf("protocol: binary frame: object id %d out of range", objectID)
	}
	hdr.ObjectID = int(objectID)
	if hdr.Epoch, err = r.uvarint(); err != nil {
		return hdr, nil, err
	}
	count, err := r.uvarint()
	if err != nil {
		return hdr, nil, err
	}
	if count == 0 || count > MaxBinaryFrameResults {
		return hdr, nil, fmt.Errorf("protocol: binary frame: row count %d out of range [1, %d]", count, MaxBinaryFrameResults)
	}
	// Allocation stays proportional to input: every legitimate frame
	// carries at least one section byte per row (the tuple-id column is
	// never omitted), so a tiny payload cannot claim a huge row count.
	if count > uint64(len(payload)) {
		return hdr, nil, fmt.Errorf("protocol: binary frame: row count %d exceeds payload size %d", count, len(payload))
	}
	frames := make([]ResultFrame, count)
	for i := range frames {
		frames[i].Kind = hdr.Kind
		frames[i].ObjectID = hdr.ObjectID
	}

	seen := make(map[byte]bool)
	for r.len() > 0 {
		tag, err := r.byte()
		if err != nil {
			return hdr, nil, err
		}
		secLen, err := r.uvarint()
		if err != nil {
			return hdr, nil, err
		}
		if secLen > uint64(r.len()) {
			return hdr, nil, fmt.Errorf("protocol: binary frame: section %d of %d bytes exceeds payload", tag, secLen)
		}
		data, err := r.bytes(int(secLen))
		if err != nil {
			return hdr, nil, err
		}
		if seen[tag] {
			return hdr, nil, fmt.Errorf("protocol: binary frame: duplicate section %d", tag)
		}
		seen[tag] = true
		if err := decodeSection(tag, data, frames); err != nil {
			return hdr, nil, err
		}
	}
	return hdr, frames, nil
}

// decodeSection dispatches one section into the row columns. Unknown
// tags are skipped (forward compatibility: new columns, old reader).
func decodeSection(tag byte, data []byte, frames []ResultFrame) error {
	count := len(frames)
	switch tag {
	case secTupleID:
		return decodeIntSection(data, count, true, func(i int, v int64) { frames[i].TupleID = int(v) })
	case secCol:
		return decodeIntSection(data, count, false, func(i int, v int64) { frames[i].Col = int(v) })
	case secAgg:
		if len(data) != count*8 {
			return fmt.Errorf("protocol: binary frame: agg section %d bytes, want %d", len(data), count*8)
		}
		for i := 0; i < count; i++ {
			frames[i].Agg = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		return nil
	case secN:
		return decodeIntSection(data, count, false, func(i int, v int64) { frames[i].N = v })
	case secWindowLo:
		return decodeIntSection(data, count, true, func(i int, v int64) { frames[i].WindowLo = int(v) })
	case secWindowHi:
		return decodeIntSection(data, count, true, func(i int, v int64) { frames[i].WindowHi = int(v) })
	case secLevel:
		return decodeIntSection(data, count, false, func(i int, v int64) { frames[i].Level = int(v) })
	case secTime:
		return decodeIntSection(data, count, true, func(i int, v int64) { frames[i].Time = time.Duration(v) })
	case secFadeAt:
		return decodeIntSection(data, count, true, func(i int, v int64) { frames[i].FadeAt = time.Duration(v) })
	case secLatency:
		return decodeIntSection(data, count, true, func(i int, v int64) { frames[i].Latency = time.Duration(v) })
	case secValue:
		return decodeStrSection(data, count, func(i int, s string) { frames[i].Value = s })
	case secGroupKey:
		return decodeStrSection(data, count, func(i int, s string) { frames[i].GroupKey = s })
	case secMatches:
		return decodeIntSection(data, count, false, func(i int, v int64) { frames[i].Matches = int(v) })
	default:
		return nil
	}
}

// BinaryScanner reads a stream of length-prefixed binary frames and
// yields their rows one at a time — the client-side counterpart of the
// NDJSON decoder, so both negotiated encodings drain through the same
// loop.
type BinaryScanner struct {
	r   *bufio.Reader
	cur []ResultFrame
}

// NewBinaryScanner wraps r.
func NewBinaryScanner(r io.Reader) *BinaryScanner {
	return &BinaryScanner{r: bufio.NewReader(r)}
}

// Next returns the next result row. It returns io.EOF at a clean end of
// stream and a decoding error on corrupt input.
func (s *BinaryScanner) Next() (ResultFrame, error) {
	for len(s.cur) == 0 {
		var prefix [4]byte
		if _, err := io.ReadFull(s.r, prefix[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return ResultFrame{}, fmt.Errorf("protocol: binary stream: truncated length prefix")
			}
			return ResultFrame{}, err
		}
		n := binary.LittleEndian.Uint32(prefix[:])
		if n == 0 || n > MaxBinaryFrameBytes {
			return ResultFrame{}, fmt.Errorf("protocol: binary stream: frame length %d out of range [1, %d]", n, MaxBinaryFrameBytes)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(s.r, payload); err != nil {
			return ResultFrame{}, fmt.Errorf("protocol: binary stream: truncated frame: %v", err)
		}
		_, frames, err := DecodeBinaryFrame(payload)
		if err != nil {
			return ResultFrame{}, err
		}
		s.cur = frames
	}
	f := s.cur[0]
	s.cur = s.cur[1:]
	return f, nil
}
