// Package sessionlog persists exploration sessions and live tables as
// append-only request logs. Every request a session executes, and every
// append a live table takes, is framed (length prefix + CRC32C +
// sequence number) and appended to its log file. Past a threshold one
// checkpoint writer compacts the log: a session's checkpoint holds its
// compressed history plus metadata (virtual clock, bound objects, pinned
// epochs); a table's holds one append request carrying the whole table,
// and its threshold grows with it, so rewrites stay amortized. Sessions
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
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	crc := crc32.Update(0, castagnoli, hdr[8:])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// parseFrames decodes every complete frame in data. tail is the number
// of trailing bytes belonging to a torn final frame (0 when the log
// ends cleanly); tearing is tolerated only at the very end — a frame
// that fails mid-log, or a length prefix beyond MaxFrameBytes, returns
// ErrTornLog.
func parseFrames(data []byte) (frames []Frame, tail int, err error) {
	pos := 0
	for {
		rem := len(data) - pos
		if rem == 0 {
			return frames, 0, nil
		}
		if rem < frameHeader {
			return frames, rem, nil
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		if n > MaxFrameBytes {
			return frames, 0, fmt.Errorf("%w: frame length %d at offset %d exceeds %d",
				ErrTornLog, n, pos, MaxFrameBytes)
		}
		if rem < frameHeader+n {
			return frames, rem, nil
		}
		want := binary.LittleEndian.Uint32(data[pos+4:])
		body := data[pos+8 : pos+frameHeader+n]
		if crc32.Checksum(body, castagnoli) != want {
			if pos+frameHeader+n == len(data) {
				// A final frame that fails its CRC is a torn write (the
				// header landed, part of the payload did not): tolerate it
				// like a short tail.
				return frames, rem, nil
			}
			return frames, 0, fmt.Errorf("%w: CRC mismatch in frame at offset %d", ErrTornLog, pos)
		}
		frames = append(frames, Frame{
			Seq:     binary.LittleEndian.Uint64(body),
			Payload: body[8:],
		})
		pos += frameHeader + n
	}
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
	// RawBytes is the length of the covered frames uncompressed: the most
	// the decoder will inflate. Checkpoints written before it was recorded
	// read as 0 and are bounded by their frame count instead.
	RawBytes int64 `json:"rawBytes,omitempty"`
	// WrittenUnixNS is the wall-clock write time.
	WrittenUnixNS int64 `json:"writtenUnixNs,omitempty"`
}

// Checkpoint file layout: 8-byte magic, one frame (seq 0) holding the
// JSON meta, then the flate-compressed concatenation of the covered
// frames. Checkpoints are written to a temp file and renamed into
// place, so unlike logs they are never legitimately torn: any decode
// failure is ErrTornLog.
var ckptMagic = [8]byte{'d', 'b', 't', 's', 'l', 'c', 'k', '1'}

// encodeCheckpoint renders meta + frames as a checkpoint file image,
// recording the frames' length in meta.RawBytes.
func encodeCheckpoint(meta *CheckpointMeta, frames []Frame) ([]byte, error) {
	var raw []byte
	for _, fr := range frames {
		raw = AppendFrame(raw, fr.Seq, fr.Payload)
	}
	meta.RawBytes = int64(len(raw))
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	buf := append([]byte(nil), ckptMagic[:]...)
	buf = AppendFrame(buf, 0, metaJSON)
	var comp bytes.Buffer
	zw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return append(buf, comp.Bytes()...), nil
}

// decodeCheckpoint parses a checkpoint file image. Every failure mode
// is ErrTornLog: checkpoints are atomic (temp file + rename), so a bad
// one is corruption, never a tolerated partial write.
func decodeCheckpoint(data []byte) (CheckpointMeta, []Frame, error) {
	meta, rest, err := decodeCheckpointHeader(data)
	if err != nil {
		return meta, nil, err
	}
	// Inflate no more than the header vouches for: a corrupt body must
	// not grow without limit before the frame checks can refuse it.
	const maxFrame = frameHeader + MaxFrameBytes
	limit := meta.RawBytes
	if limit == 0 && meta.Frames > 0 {
		limit = min(int64(meta.Frames), math.MaxInt64/maxFrame) * maxFrame
	}
	zr := flate.NewReader(bytes.NewReader(rest))
	raw, err := io.ReadAll(io.LimitReader(zr, limit+1))
	if err != nil {
		return meta, nil, fmt.Errorf("%w: checkpoint body: %v", ErrTornLog, err)
	}
	if int64(len(raw)) > limit {
		return meta, nil, fmt.Errorf("%w: checkpoint body inflates past the %d bytes its header allows", ErrTornLog, limit)
	}
	if meta.RawBytes != 0 && int64(len(raw)) != meta.RawBytes {
		return meta, nil, fmt.Errorf("%w: checkpoint body is %d bytes, header says %d", ErrTornLog, len(raw), meta.RawBytes)
	}
	frames, tail, err := parseFrames(raw)
	if err != nil {
		return meta, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if tail != 0 {
		return meta, nil, fmt.Errorf("%w: checkpoint body ends mid-frame", ErrTornLog)
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

// decodeCheckpointHeader parses just the magic and meta frame — enough
// to learn LastSeq without decompressing the history (the appender's
// reopen path uses this).
func decodeCheckpointHeader(data []byte) (CheckpointMeta, []byte, error) {
	var meta CheckpointMeta
	if len(data) < len(ckptMagic) || !bytes.Equal(data[:len(ckptMagic)], ckptMagic[:]) {
		return meta, nil, fmt.Errorf("%w: bad checkpoint magic", ErrTornLog)
	}
	body := data[len(ckptMagic):]
	if len(body) < frameHeader {
		return meta, nil, fmt.Errorf("%w: checkpoint truncated before meta", ErrTornLog)
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n > MaxFrameBytes || len(body) < frameHeader+n {
		return meta, nil, fmt.Errorf("%w: checkpoint meta truncated", ErrTornLog)
	}
	want := binary.LittleEndian.Uint32(body[4:])
	frame := body[8 : frameHeader+n]
	if crc32.Checksum(frame, castagnoli) != want {
		return meta, nil, fmt.Errorf("%w: checkpoint meta CRC mismatch", ErrTornLog)
	}
	if err := json.Unmarshal(frame[8:], &meta); err != nil {
		return meta, nil, fmt.Errorf("%w: checkpoint meta: %v", ErrTornLog, err)
	}
	return meta, body[frameHeader+n:], nil
}
