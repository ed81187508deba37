package sessionlog

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tapPayload is a gateway-stamped tap body of about 145 bytes, the frame
// a fleet's durable session logs most.
func tapPayload(i int) []byte {
	return []byte(fmt.Sprintf(`{"v":2,"op":"perform","session":"s-000017","object":"col","gesture":{"kind":"tap","x":0.%06d,"y":0.5},"reqId":"g1-%09d"}`, i%1000000, i))
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// segmentsOf returns a checkpoint file's segment bytes: everything after
// its header.
func segmentsOf(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, body, v1, err := decodeCheckpointHeader(data)
	if err != nil || v1 {
		t.Fatalf("%s: %v (version 1: %v), want a segmented checkpoint", path, err, v1)
	}
	return body
}

// TestWarmAppendAllocs: once a log's appender is cached, an append — its
// locker, the frame, the write — allocates nothing, for an id that needs
// no escaping and one that does. 20 appends count as one run: a mean per
// append would truncate an allocation made now and then to 0.
func TestWarmAppendAllocs(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload, body := tapPayload(1), string(tapPayload(2))
	for _, id := range []string{"s-000017", "ünï/code id"} {
		mustAppendN(t, st, id, 2)
		for name, step := range map[string]func() error{
			"AppendSession": func() error {
				_, err := st.AppendSession(id, payload)
				return err
			},
			"AppendSessionBody under SessionLocker": func() error {
				lk := st.SessionLocker(id)
				lk.Lock()
				defer lk.Unlock()
				_, err := st.AppendSessionBody(id, body)
				return err
			},
		} {
			n := testing.AllocsPerRun(1, func() {
				for i := 0; i < 20; i++ {
					if err := step(); err != nil {
						t.Fatal(err)
					}
				}
			})
			if n != 0 {
				t.Errorf("20 warm %s calls for %q allocate %v times", name, id, n)
			}
		}
	}
	// Both ids' appenders stay cached and in LRU order, without growth.
	if open := st.Stats().OpenLogs; open != 2 || len(st.order) != 2 {
		t.Fatalf("OpenLogs %d, LRU order %v, want the 2 sessions", open, st.order)
	}
}

// TestCompactionCopiesEarlierSegments: a session compaction writes the
// earlier segments back byte for byte and adds one for the tail, and
// what it allocates is the tail's: compacting the same tail over 64
// segments of history costs what it costs over one. LoadSession still
// returns the whole history.
func TestCompactionCopiesEarlierSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const tail = 500
	appendRange := func(id string, from, to int) {
		for i := from; i < to; i++ {
			if _, err := st.AppendSession(id, tapPayload(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// long: 64 compactions of 500 frames each; short: one.
	for c := 0; c < 64; c++ {
		appendRange("long", c*tail, (c+1)*tail)
		if err := st.CompactSession("long", CheckpointMeta{}); err != nil {
			t.Fatal(err)
		}
	}
	appendRange("short", 0, tail)
	if err := st.CompactSession("short", CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	cost := map[string]uint64{}
	for id, done := range map[string]int{"long": 64 * tail, "short": tail} {
		path := filepath.Join(dir, "s-"+id+".ckpt")
		before := segmentsOf(t, path)
		appendRange(id, done, done+tail)
		cost[id] = allocated(func() {
			if err := st.CompactSession(id, CheckpointMeta{VClockNS: 7}); err != nil {
				t.Fatal(err)
			}
		})
		after := segmentsOf(t, path)
		if !bytes.HasPrefix(after, before) || len(after) == len(before) {
			t.Fatalf("%s: the new checkpoint's %d segment bytes do not extend the old %d", id, len(after), len(before))
		}
		rep, err := st.LoadSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Frames) != done+tail || rep.Meta.Frames != done+tail || rep.LastSeq != uint64(done+tail) {
			t.Fatalf("%s: loads %d frames to seq %d (header %d), want %d", id, len(rep.Frames), rep.LastSeq, rep.Meta.Frames, done+tail)
		}
		for i, fr := range rep.Frames {
			if fr.Seq != uint64(i+1) || !bytes.Equal(fr.Payload, tapPayload(i)) {
				t.Fatalf("%s: frame %d is seq %d %q", id, i, fr.Seq, fr.Payload)
			}
		}
	}
	if long, short := cost["long"], cost["short"]; float64(long) > 1.5*float64(short) {
		t.Fatalf("compacting a %d-frame tail allocates %d B over 64 segments of history, %d B over one", tail, long, short)
	}
}

// TestSessionCompactionCostFlat is the durable-session dimension of the
// complexity gates: a session logging 145-byte requests and compacting
// at the default threshold, as the session layer does, allocates as many
// bytes per logged request around its 50 000th frame as around its
// 5 000th — within 1.5×, each averaged over whole compaction cycles.
func TestSessionCompactionCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("logs 55 000 frames")
	}
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	next := 0
	// cycle logs frames up to and including the next compaction.
	cycle := func() {
		for {
			tail, err := st.AppendSession("u", tapPayload(next))
			if err != nil {
				t.Fatal(err)
			}
			next++
			if tail >= st.CompactBytes() {
				if err := st.CompactSession("u", CheckpointMeta{VClockNS: int64(next)}); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	// perFrame measures three whole cycles from the first compaction at
	// or past frame at.
	perFrame := func(at int) float64 {
		for next < at {
			cycle()
		}
		from := next
		bytes := allocated(func() {
			for i := 0; i < 3; i++ {
				cycle()
			}
		})
		return float64(bytes) / float64(next-from)
	}
	small, large := perFrame(5000), perFrame(50000)
	t.Logf("bytes allocated per logged frame: %.1f at ~5 000 frames, %.1f at ~50 000", small, large)
	if large > 1.5*small {
		t.Fatalf("per-frame allocation grows with history: %.1f B at ~5 000 frames, %.1f B at ~50 000", small, large)
	}
}

// The v1 fixture (testdata/v1) is a session checkpoint and log pair
// written before checkpoints were segmented (magic dbtslck1): crash
// script 101's first 15 requests on session "legacy", the checkpoint
// covering 14 of them and the log the 15th.
const (
	fixtureFrames = 15
	fixtureDigest = "24eb4abb5ef9805ddbf92e64290bfc3f5c66a3624b998c3b2ded5c57ec06f8e6"
)

// fixtureDir copies the v1 fixture into a fresh directory.
func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"s-legacy.ckpt", "s-legacy.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// framesDigest hashes frames as a log frames them.
func framesDigest(frames []Frame) string {
	h := sha256.New()
	for _, fr := range frames {
		h.Write(AppendFrame(nil, fr.Seq, fr.Payload))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func loadFixture(t *testing.T, st *Store) *Replay {
	t.Helper()
	rep, err := st.LoadSession("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != fixtureFrames || rep.LastSeq != fixtureFrames || framesDigest(rep.Frames) != fixtureDigest {
		t.Fatalf("fixture loads to %d frames to seq %d, digest %s; want %d, digest %s",
			len(rep.Frames), rep.LastSeq, framesDigest(rep.Frames), fixtureFrames, fixtureDigest)
	}
	return rep
}

// TestV1FixtureLoads: a version-1 checkpoint and its log load to the
// frames the release that wrote them loaded.
func TestV1FixtureLoads(t *testing.T) {
	st, err := Open(Options{Dir: fixtureDir(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep := loadFixture(t, st)
	if m := rep.Meta; m.Session != "legacy" || m.LastSeq != 14 || m.Frames != 14 || m.RawBytes != 1524 || m.Objects["obj"] != 1 {
		t.Fatalf("fixture checkpoint meta %+v", *m)
	}
	if got := string(rep.Frames[0].Payload); got != `{"v":2,"op":"open","session":"legacy"}` {
		t.Fatalf("first frame %s", got)
	}
}

// TestV1FixtureCompacts: compacting over a version-1 checkpoint writes a
// segmented one with the same frames; appending continues the sequence,
// and the next compaction keeps that checkpoint's segment byte for byte.
// A later segment corrupted on disk is then ErrTornLog.
func TestV1FixtureCompacts(t *testing.T) {
	dir := fixtureDir(t)
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.CompactSession("legacy", CheckpointMeta{VClockNS: 9}); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "s-legacy.ckpt")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, ckptMagic[:]) {
		t.Fatalf("compacted checkpoint starts %q, want the segmented magic %q", data[:8], ckptMagic[:])
	}
	rep := loadFixture(t, st)
	if m := rep.Meta; m.Frames != fixtureFrames || m.LastSeq != fixtureFrames || m.VClockNS != 9 {
		t.Fatalf("compacted checkpoint meta %+v", *m)
	}
	first := segmentsOf(t, ckpt)

	for i := 0; i < 3; i++ {
		if _, err := st.AppendSession("legacy", payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CompactSession("legacy", CheckpointMeta{}); err != nil {
		t.Fatal(err)
	}
	both := segmentsOf(t, ckpt)
	if !bytes.HasPrefix(both, first) {
		t.Fatal("the second compaction rewrote the first segment")
	}
	rep, err = st.LoadSession("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Frames) != fixtureFrames+3 || framesDigest(rep.Frames[:fixtureFrames]) != fixtureDigest {
		t.Fatalf("after a second compaction: %d frames", len(rep.Frames))
	}

	data, err = os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	second := len(data) - len(both) + len(first) // the second segment's offset
	for _, at := range []int{second + 2, second + 9, second + frameHeader + 3, len(data) - 2} {
		if err := os.WriteFile(ckpt, flipped(data, at), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.LoadSession("legacy"); !errors.Is(err, ErrTornLog) {
			t.Fatalf("second segment corrupt at byte %d: load = %v, want ErrTornLog", at, err)
		}
	}
}

// segmentImage is a checkpoint image whose one segment claims rawLen
// bytes and frames frames ending at seq 1 but holds deflated, with a valid
// CRC: what the decoder must refuse by the header's word, not by a
// checksum.
func segmentImage(t *testing.T, rawLen, frames uint32, deflated []byte) []byte {
	t.Helper()
	metaJSON, err := json.Marshal(CheckpointMeta{Session: "u", LastSeq: 1, Frames: 1, RawBytes: int64(rawLen)})
	if err != nil {
		t.Fatal(err)
	}
	img := AppendFrame(append([]byte(nil), ckptMagic[:]...), 0, metaJSON)
	payload := binary.LittleEndian.AppendUint32(nil, rawLen)
	payload = binary.LittleEndian.AppendUint32(payload, frames)
	return AppendFrame(img, 1, append(payload, deflated...))
}

func deflate(t *testing.T, chunks ...[]byte) []byte {
	t.Helper()
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		zw.Write(c)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSegmentInflationBounded: a segment that inflates past the length
// its header vouches for is refused after inflating about that much; one
// that inflates short of it, or to frames its header does not count, is
// refused too.
func TestSegmentInflationBounded(t *testing.T) {
	zeros := make([]byte, 1<<16)
	chunks := make([][]byte, 1024) // 64 MiB inflated
	for i := range chunks {
		chunks[i] = zeros
	}
	bomb := segmentImage(t, 100, 1, deflate(t, chunks...))
	var err error
	n := allocated(func() { _, _, err = decodeCheckpoint(bomb) })
	if !errors.Is(err, ErrTornLog) || !strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("decode: %v, want ErrTornLog for inflating past the header", err)
	}
	if n > 4<<20 {
		t.Fatalf("refusing a %d-byte bomb allocated %d bytes", len(bomb), n)
	}

	frame := AppendFrame(nil, 1, payloadFor(1))
	for _, c := range []struct {
		name   string
		img    []byte
		reason string
	}{
		{"short", segmentImage(t, uint32(len(frame)+1), 1, deflate(t, frame)), "header says"},
		{"count", segmentImage(t, uint32(len(frame)), 2, deflate(t, frame)), "frames ending at seq"},
		{"huge", segmentImage(t, maxSegmentRaw+1, 1, deflate(t, frame)), "claims"},
	} {
		if _, _, err := decodeCheckpoint(c.img); !errors.Is(err, ErrTornLog) || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: decode = %v, want ErrTornLog naming %q", c.name, err, c.reason)
		}
	}
	if _, frames, err := decodeCheckpoint(segmentImage(t, uint32(len(frame)), 1, deflate(t, frame))); err != nil || len(frames) != 1 {
		t.Fatalf("the well-formed segment: %v, %d frames", err, len(frames))
	}
}

// TestSegmentSplit: a run of frames longer than a segment's limit is
// written as several segments of whole frames — a frame longer than the
// limit alone in one — that decode back to the run.
func TestSegmentSplit(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, 300)
	frames := []Frame{{1, big}, {2, big}, {3, payloadFor(3)}, {4, big}, {5, payloadFor(5)}}
	var raw []byte
	for _, fr := range frames {
		raw = AppendFrame(raw, fr.Seq, fr.Payload)
	}
	var out bytes.Buffer
	sw := segmentWriter{limit: 2*frameHeader + 2*len(big) - 1}
	if err := sw.write(&out, raw); err != nil {
		t.Fatal(err)
	}
	img, err := appendCheckpointHeader(nil, &CheckpointMeta{LastSeq: 5, Frames: 5, RawBytes: int64(len(raw))})
	if err != nil {
		t.Fatal(err)
	}
	img = append(img, out.Bytes()...)
	var lasts []uint64
	for body := out.Bytes(); len(body) > 0; body = body[frameHeader+binary.LittleEndian.Uint32(body):] {
		lasts = append(lasts, binary.LittleEndian.Uint64(body[8:]))
	}
	if fmt.Sprint(lasts) != "[1 3 5]" {
		t.Fatalf("segments end at seqs %v, want [1 3 5]", lasts)
	}
	_, got, err := decodeCheckpoint(img)
	if err != nil || !sameFrames(got, frames) {
		t.Fatalf("split checkpoint decodes to %d frames: %v", len(got), err)
	}
}
