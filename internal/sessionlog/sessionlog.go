// Package sessionlog persists exploration sessions and live tables as
// append-only request logs. Every request a session executes, and every
// append a live table takes, is framed (length prefix + CRC32C +
// sequence number) and appended to its log file; a request that came in
// over the wire is logged as the body it arrived as. Past a threshold
// the log is compacted into a checkpoint: metadata (virtual clock, bound
// objects, pinned epochs) plus segments, each a run of frames deflated
// on its own. A session's compaction copies the earlier segments
// verbatim and deflates only its log tail into a new one, so it costs
// the tail, not the history; a table's checkpoint is one segment holding
// one append request that carries the whole table, and its threshold
// grows with it, so rewrites stay amortized. Sessions
// run on virtual clocks, so checkpoint + tail replayed through
// session.Manager.HandleRequest reconstructs a session bit-exactly — an
// evicted or crashed session resumes exactly where the finger left off.
//
// The on-disk contract mirrors internal/ftdc: writes are unbuffered
// (one write syscall per frame, so a kill -9 loses at most the frame
// being written), readers tolerate a torn tail (a partial final frame
// decodes to the complete prefix, never to partial state), and anything
// worse — a corrupt frame with data after it, a checkpoint that fails
// its own checksums — is the typed ErrTornLog, never a silent partial
// replay. A store-wide retention budget drops the oldest parked
// sessions' files first, like the flight recorder's rotation; live
// sessions and table logs are never dropped.
package sessionlog

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Sentinel errors callers test with errors.Is.
var (
	// ErrTornLog reports a log or checkpoint damaged beyond the tolerated
	// torn tail: a frame failed its CRC with data after it, a sequence
	// gap, or a checkpoint that does not decode. Resume refuses to build
	// partial-batch state from such a log.
	ErrTornLog = errors.New("sessionlog: torn log")
	// ErrNoLog reports a session with no persisted log or checkpoint.
	ErrNoLog = errors.New("sessionlog: no log for session")
)

// Frame layout: u32 LE payload length | u32 LE CRC32C over (seq ‖
// payload) | u64 LE sequence number | payload. Sequence numbers are
// contiguous per log and survive compaction (the checkpoint records the
// last sequence it covers), which is what makes the
// crash-between-checkpoint-and-truncate window safe: duplicate frames
// left in the log are recognized and skipped on load.
const frameHeader = 16

// MaxFrameBytes bounds one frame's payload; a length prefix beyond it
// is corruption, not a frame.
const MaxFrameBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded log entry: a sequence number and the raw request
// payload (a protocol.Request JSON encoding, for session and table logs
// both).
type Frame struct {
	Seq     uint64
	Payload []byte
}

// AppendFrame appends the framed encoding of (seq, payload) to dst and
// returns the extended slice. Exported so fault-injection tests can
// craft torn and corrupt logs byte by byte.
func AppendFrame(dst []byte, seq uint64, payload []byte) []byte {
	return appendFrame(dst, seq, payload)
}

// appendFrame is AppendFrame for a payload held as bytes or as a string
// (a request body as the /rpc handler read it): the payload is copied in
// once and the CRC computed over the copy.
func appendFrame[P ~string | ~[]byte](dst []byte, seq uint64, payload P) []byte {
	start := len(dst)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	dst = append(append(dst, hdr[:]...), payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], castagnoli))
	return dst
}

// frameAt decodes the frame starting at data[pos]. It returns the frame
// and the bytes it spans; a size of 0 with no error is a torn final frame
// (too short for its header or its length, or failing its CRC with nothing
// after it), which takes the rest of data. A frame that fails its CRC with
// data after it, or a length prefix beyond MaxFrameBytes, is ErrTornLog.
func frameAt(data []byte, pos int) (fr Frame, size int, err error) {
	rem := len(data) - pos
	if rem < frameHeader {
		return Frame{}, 0, nil
	}
	n := int(binary.LittleEndian.Uint32(data[pos:]))
	if n > MaxFrameBytes {
		return Frame{}, 0, fmt.Errorf("%w: frame length %d at offset %d exceeds %d",
			ErrTornLog, n, pos, MaxFrameBytes)
	}
	if rem < frameHeader+n {
		return Frame{}, 0, nil
	}
	want := binary.LittleEndian.Uint32(data[pos+4:])
	body := data[pos+8 : pos+frameHeader+n]
	if crc32.Checksum(body, castagnoli) != want {
		if pos+frameHeader+n == len(data) {
			// A final frame that fails its CRC is a torn write (the
			// header landed, part of the payload did not): tolerate it
			// like a short tail.
			return Frame{}, 0, nil
		}
		return Frame{}, 0, fmt.Errorf("%w: CRC mismatch in frame at offset %d", ErrTornLog, pos)
	}
	return Frame{Seq: binary.LittleEndian.Uint64(body), Payload: body[8:]}, frameHeader + n, nil
}

// parseFrames decodes every complete frame in data. tail is the number
// of trailing bytes belonging to a torn final frame (0 when the log
// ends cleanly); tearing is tolerated only at the very end — a frame
// that fails mid-log, or a length prefix beyond MaxFrameBytes, returns
// ErrTornLog.
func parseFrames(data []byte) (frames []Frame, tail int, err error) {
	for pos := 0; pos < len(data); {
		fr, n, err := frameAt(data, pos)
		if err != nil {
			return frames, 0, err
		}
		if n == 0 {
			return frames, len(data) - pos, nil
		}
		frames = append(frames, fr)
		pos += n
	}
	return frames, 0, nil
}

// CheckpointMeta is the header of a checkpoint file: which prefix of
// the request history the checkpoint covers, plus advisory state an
// operator (or a future migration path) can inspect without replaying —
// the session's virtual clock, its wire-name→object-id bindings, and
// the live-table epochs it had pinned at checkpoint time.
type CheckpointMeta struct {
	Session string `json:"session,omitempty"`
	Table   string `json:"table,omitempty"`
	// LastSeq is the sequence number of the last frame the checkpoint
	// covers; Frames is how many frames it holds.
	LastSeq uint64 `json:"lastSeq"`
	Frames  int    `json:"frames"`
	// VClockNS is the session's virtual clock at checkpoint time.
	VClockNS int64 `json:"vclockNs,omitempty"`
	// Objects maps wire object names to kernel ids.
	Objects map[string]int `json:"objects,omitempty"`
	// Epochs maps live-table names to the snapshot epoch the session had
	// pinned.
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	// RawBytes is the length of the covered frames uncompressed, summed
	// over the segments. Version-1 checkpoints written before it was
	// recorded read as 0 and are bounded by their frame count instead.
	RawBytes int64 `json:"rawBytes,omitempty"`
	// WrittenUnixNS is the wall-clock write time.
	WrittenUnixNS int64 `json:"writtenUnixNs,omitempty"`
}

// Checkpoint file layout: 8-byte magic, one frame (seq 0) holding the
// JSON meta, then segments. A segment is one frame whose sequence number
// is the last one it covers and whose payload is segmentHeader bytes —
// the covered frames' length uncompressed (u32 LE) and their count (u32
// LE) — followed by those frames, framed as in the log, flate-compressed.
// Segments are compressed independently, so a session compaction copies
// the earlier ones byte for byte and appends one for the log tail; a
// table's checkpoint is one segment holding its snapshot. Checkpoints
// are written to a temp file and renamed into place, so unlike logs they
// are never legitimately torn: any decode failure is ErrTornLog.
var ckptMagic = [8]byte{'d', 'b', 't', 's', 'l', 'c', 'k', '2'}

// ckptMagicV1 marks the earlier layout: the meta frame, then the whole
// history as one flate stream. It is still read, and a session
// compaction over it writes the current layout.
var ckptMagicV1 = [8]byte{'d', 'b', 't', 's', 'l', 'c', 'k', '1'}

const segmentHeader = 8

// maxSegmentRaw bounds the frames one segment covers, uncompressed: any
// one frame fits, and the decoder inflates no more than this per segment.
const maxSegmentRaw = frameHeader + MaxFrameBytes

// segmentWriter compresses framed log bytes into checkpoint segments,
// keeping its compressor and buffer from one segment to the next.
type segmentWriter struct {
	zw  *flate.Writer
	buf bytes.Buffer
	// limit bounds a segment's frames uncompressed; 0 is maxSegmentRaw.
	limit int
}

// write appends raw — whole frames, framed as in a log — to w as
// segments of at most limit uncompressed bytes each, or of one frame.
func (sw *segmentWriter) write(w io.Writer, raw []byte) error {
	limit := sw.limit
	if limit == 0 {
		limit = maxSegmentRaw
	}
	for len(raw) > 0 {
		n, frames, last := 0, 0, uint64(0)
		for n < len(raw) {
			size := frameHeader + int(binary.LittleEndian.Uint32(raw[n:]))
			if frames > 0 && n+size > limit {
				break
			}
			last = binary.LittleEndian.Uint64(raw[n+8:])
			n += size
			frames++
		}
		if err := sw.segment(w, raw[:n], frames, last); err != nil {
			return err
		}
		raw = raw[n:]
	}
	return nil
}

// segment writes one segment covering raw's frames, the last with
// sequence number last, in one write.
func (sw *segmentWriter) segment(w io.Writer, raw []byte, frames int, last uint64) error {
	sw.buf.Reset()
	var hdr [frameHeader + segmentHeader]byte
	sw.buf.Write(hdr[:])
	if sw.zw == nil {
		zw, err := flate.NewWriter(&sw.buf, flate.BestSpeed)
		if err != nil {
			return err
		}
		sw.zw = zw
	} else {
		sw.zw.Reset(&sw.buf)
	}
	if _, err := sw.zw.Write(raw); err != nil {
		return err
	}
	if err := sw.zw.Close(); err != nil {
		return err
	}
	b := sw.buf.Bytes()
	binary.LittleEndian.PutUint32(b[0:], uint32(len(b)-frameHeader))
	binary.LittleEndian.PutUint64(b[8:], last)
	binary.LittleEndian.PutUint32(b[frameHeader:], uint32(len(raw)))
	binary.LittleEndian.PutUint32(b[frameHeader+4:], uint32(frames))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(b[8:], castagnoli))
	_, err := w.Write(b)
	if sw.buf.Cap() > maxKeptBuffer {
		sw.buf = bytes.Buffer{}
	}
	return err
}

// maxKeptBuffer is the largest scratch buffer a Store keeps between uses;
// a bigger one (a huge table snapshot, an overgrown tail) is dropped.
const maxKeptBuffer = 1 << 20

// appendCheckpointHeader appends the magic and meta frame to dst.
func appendCheckpointHeader(dst []byte, meta *CheckpointMeta) ([]byte, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	return AppendFrame(append(dst, ckptMagic[:]...), 0, metaJSON), nil
}

// encodeCheckpoint renders meta + frames as a checkpoint file image,
// recording the frames' count, last sequence number and length in meta.
func encodeCheckpoint(meta *CheckpointMeta, frames []Frame) ([]byte, error) {
	var raw []byte
	for _, fr := range frames {
		raw = AppendFrame(raw, fr.Seq, fr.Payload)
	}
	meta.Frames, meta.RawBytes = len(frames), int64(len(raw))
	if len(frames) > 0 {
		meta.LastSeq = frames[len(frames)-1].Seq
	}
	img, err := appendCheckpointHeader(nil, meta)
	if err != nil {
		return nil, err
	}
	out := bytes.NewBuffer(img)
	var sw segmentWriter
	if err := sw.write(out, raw); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// decodeCheckpoint parses a checkpoint file image of either layout.
// Every failure mode is ErrTornLog: checkpoints are atomic (temp file +
// rename), so a bad one is corruption, never a tolerated partial write.
func decodeCheckpoint(data []byte) (CheckpointMeta, []Frame, error) {
	meta, body, v1, err := decodeCheckpointHeader(data)
	if err != nil {
		return meta, nil, err
	}
	var frames []Frame
	if v1 {
		_, frames, err = decodeBodyV1(&meta, body)
	} else {
		frames, err = decodeSegments(&meta, body)
	}
	if err != nil {
		return meta, nil, err
	}
	if len(frames) != meta.Frames {
		return meta, nil, fmt.Errorf("%w: checkpoint holds %d frames, header says %d",
			ErrTornLog, len(frames), meta.Frames)
	}
	for i, fr := range frames {
		if i > 0 && fr.Seq != frames[i-1].Seq+1 {
			return meta, nil, fmt.Errorf("%w: checkpoint sequence gap at frame %d", ErrTornLog, i)
		}
	}
	if len(frames) > 0 && frames[len(frames)-1].Seq != meta.LastSeq {
		return meta, nil, fmt.Errorf("%w: checkpoint ends at seq %d, header says %d",
			ErrTornLog, frames[len(frames)-1].Seq, meta.LastSeq)
	}
	return meta, frames, nil
}

// decodeSegments inflates and parses a checkpoint's segments, each to no
// more than the length its header vouches for.
func decodeSegments(meta *CheckpointMeta, body []byte) ([]Frame, error) {
	var (
		frames []Frame
		raw    int64
		zr     io.ReadCloser
	)
	for pos, i := 0, 0; pos < len(body); i++ {
		rem := len(body) - pos
		if rem < frameHeader+segmentHeader {
			return nil, fmt.Errorf("%w: checkpoint segment %d truncated", ErrTornLog, i)
		}
		n := int(binary.LittleEndian.Uint32(body[pos:]))
		if n < segmentHeader || n > rem-frameHeader {
			return nil, fmt.Errorf("%w: checkpoint segment %d length %d overruns the file", ErrTornLog, i, n)
		}
		seg := body[pos+8 : pos+frameHeader+n]
		if crc32.Checksum(seg, castagnoli) != binary.LittleEndian.Uint32(body[pos+4:]) {
			return nil, fmt.Errorf("%w: checkpoint segment %d CRC mismatch", ErrTornLog, i)
		}
		last := binary.LittleEndian.Uint64(seg)
		rawLen := int64(binary.LittleEndian.Uint32(seg[8:]))
		count := int(binary.LittleEndian.Uint32(seg[12:]))
		if rawLen > maxSegmentRaw {
			return nil, fmt.Errorf("%w: checkpoint segment %d claims %d bytes, past %d", ErrTornLog, i, rawLen, maxSegmentRaw)
		}
		src := bytes.NewReader(seg[8+segmentHeader:])
		if zr == nil {
			zr = flate.NewReader(src)
		} else if err := zr.(flate.Resetter).Reset(src, nil); err != nil {
			return nil, fmt.Errorf("%w: checkpoint segment %d: %v", ErrTornLog, i, err)
		}
		data, err := io.ReadAll(io.LimitReader(zr, rawLen+1))
		if err != nil {
			return nil, fmt.Errorf("%w: checkpoint segment %d: %v", ErrTornLog, i, err)
		}
		if int64(len(data)) > rawLen {
			return nil, fmt.Errorf("%w: checkpoint segment %d inflates past the %d bytes its header allows", ErrTornLog, i, rawLen)
		}
		if int64(len(data)) != rawLen {
			return nil, fmt.Errorf("%w: checkpoint segment %d is %d bytes, header says %d", ErrTornLog, i, len(data), rawLen)
		}
		fs, tail, err := parseFrames(data)
		if err != nil {
			return nil, fmt.Errorf("checkpoint segment %d: %w", i, err)
		}
		if tail != 0 || len(fs) == 0 || len(fs) != count || fs[len(fs)-1].Seq != last {
			return nil, fmt.Errorf("%w: checkpoint segment %d does not hold the %d frames ending at seq %d its header says", ErrTornLog, i, count, last)
		}
		frames = append(frames, fs...)
		raw += rawLen
		pos += frameHeader + n
	}
	if raw != meta.RawBytes {
		return nil, fmt.Errorf("%w: checkpoint segments hold %d bytes, header says %d", ErrTornLog, raw, meta.RawBytes)
	}
	return frames, nil
}

// decodeBodyV1 inflates and parses a version-1 checkpoint's body, one
// flate stream, returning its framed bytes and its frames. It inflates no
// more than the header vouches for: a corrupt body must not grow without
// limit before the frame checks can refuse it.
func decodeBodyV1(meta *CheckpointMeta, body []byte) ([]byte, []Frame, error) {
	const maxFrame = frameHeader + MaxFrameBytes
	limit := meta.RawBytes
	if limit == 0 && meta.Frames > 0 {
		limit = min(int64(meta.Frames), math.MaxInt64/maxFrame) * maxFrame
	}
	zr := flate.NewReader(bytes.NewReader(body))
	raw, err := io.ReadAll(io.LimitReader(zr, limit+1))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: checkpoint body: %v", ErrTornLog, err)
	}
	if int64(len(raw)) > limit {
		return nil, nil, fmt.Errorf("%w: checkpoint body inflates past the %d bytes its header allows", ErrTornLog, limit)
	}
	if meta.RawBytes != 0 && int64(len(raw)) != meta.RawBytes {
		return nil, nil, fmt.Errorf("%w: checkpoint body is %d bytes, header says %d", ErrTornLog, len(raw), meta.RawBytes)
	}
	frames, tail, err := parseFrames(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if tail != 0 {
		return nil, nil, fmt.Errorf("%w: checkpoint body ends mid-frame", ErrTornLog)
	}
	return raw, frames, nil
}

// decodeCheckpointHeader parses just the magic and meta frame — enough
// to learn LastSeq without decompressing the history — and reports
// whether the file has the version-1 layout.
func decodeCheckpointHeader(data []byte) (meta CheckpointMeta, body []byte, v1 bool, err error) {
	switch {
	case len(data) >= len(ckptMagic) && bytes.Equal(data[:len(ckptMagic)], ckptMagic[:]):
	case len(data) >= len(ckptMagicV1) && bytes.Equal(data[:len(ckptMagicV1)], ckptMagicV1[:]):
		v1 = true
	default:
		return meta, nil, false, fmt.Errorf("%w: bad checkpoint magic", ErrTornLog)
	}
	rest := data[len(ckptMagic):]
	if len(rest) < frameHeader {
		return meta, nil, v1, fmt.Errorf("%w: checkpoint truncated before meta", ErrTornLog)
	}
	n := int(binary.LittleEndian.Uint32(rest))
	if n > MaxFrameBytes || len(rest) < frameHeader+n {
		return meta, nil, v1, fmt.Errorf("%w: checkpoint meta truncated", ErrTornLog)
	}
	want := binary.LittleEndian.Uint32(rest[4:])
	frame := rest[8 : frameHeader+n]
	if crc32.Checksum(frame, castagnoli) != want {
		return meta, nil, v1, fmt.Errorf("%w: checkpoint meta CRC mismatch", ErrTornLog)
	}
	if err := json.Unmarshal(frame[8:], &meta); err != nil {
		return meta, nil, v1, fmt.Errorf("%w: checkpoint meta: %v", ErrTornLog, err)
	}
	return meta, rest[frameHeader+n:], v1, nil
}

// readCheckpointHeader reads and parses the magic and meta frame at the
// start of f, leaving f positioned at the body, and returns the body's
// offset.
func readCheckpointHeader(f io.Reader) (meta CheckpointMeta, bodyOff int64, v1 bool, err error) {
	var pre [len(ckptMagic) + frameHeader]byte
	if n, _ := io.ReadFull(f, pre[:]); n < len(pre) {
		_, _, _, err = decodeCheckpointHeader(pre[:n])
		return meta, 0, false, err
	}
	n := binary.LittleEndian.Uint32(pre[len(ckptMagic):])
	if n > MaxFrameBytes {
		_, _, _, err = decodeCheckpointHeader(pre[:])
		return meta, 0, false, err
	}
	head := make([]byte, len(pre)+int(n))
	copy(head, pre[:])
	k, _ := io.ReadFull(f, head[len(pre):])
	meta, _, v1, err = decodeCheckpointHeader(head[:len(pre)+k])
	return meta, int64(len(head)), v1, err
}
