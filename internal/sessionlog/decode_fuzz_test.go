package sessionlog

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
)

// historyOf is n contiguous frames from seq 1.
func historyOf(n int) []Frame {
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = Frame{Seq: uint64(i + 1), Payload: payloadFor(i)}
	}
	return frames
}

func encodeFrames(frames []Frame) []byte {
	var out []byte
	for _, fr := range frames {
		out = AppendFrame(out, fr.Seq, fr.Payload)
	}
	return out
}

func sameFrames(a, b []Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// flipped returns a copy of data with one bit of byte i inverted.
func flipped(data []byte, i int) []byte {
	out := bytes.Clone(data)
	out[i] ^= 0x10
	return out
}

// FuzzParseFrames: whatever the bytes, parseFrames returns — no panic —
// and what it accepts is exactly a log: its frames re-encode to every byte
// before the torn tail it reports. Every refusal is ErrTornLog, and any
// payload round-trips through AppendFrame.
func FuzzParseFrames(f *testing.F) {
	log := encodeFrames(historyOf(4))
	f.Add(log)
	f.Add([]byte{})
	f.Add(log[:frameHeader-1])
	f.Add(log[:len(log)-3])
	f.Add(flipped(log, 2))             // a length prefix
	f.Add(flipped(log, 3))             // a length prefix past MaxFrameBytes
	f.Add(flipped(log, frameHeader+3)) // a mid-log payload
	f.Add(flipped(log, len(log)-1))    // the final payload: a torn write
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, tail, err := parseFrames(data)
		if err != nil {
			if !errors.Is(err, ErrTornLog) {
				t.Fatalf("refusal %v is not ErrTornLog", err)
			}
		} else if tail < 0 || tail > len(data) || !bytes.Equal(encodeFrames(frames), data[:len(data)-tail]) {
			t.Fatalf("accepted %d frames and a %d-byte tail that do not re-encode to the %d-byte input", len(frames), tail, len(data))
		}
		in := []Frame{{Seq: 7, Payload: data}, {Seq: 8}}
		out, tail, err := parseFrames(encodeFrames(in))
		if err != nil || tail != 0 || !sameFrames(out, in) {
			t.Fatalf("a %d-byte payload did not round-trip: %v, tail %d", len(data), err, tail)
		}
	})
}

// FuzzDecodeCheckpoint: whatever the bytes, decodeCheckpoint returns — no
// panic — every refusal is ErrTornLog, and whatever it accepts encodes
// and decodes back to the same meta and frames.
func FuzzDecodeCheckpoint(f *testing.F) {
	meta := CheckpointMeta{Session: "u", LastSeq: 4, Frames: 4, VClockNS: 5,
		Objects: map[string]int{"o": 1}, Epochs: map[string]uint64{"events": 3}}
	img, err := encodeCheckpoint(&meta, historyOf(4))
	if err != nil {
		f.Fatal(err)
	}
	empty, err := encodeCheckpoint(&CheckpointMeta{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	// One segment per frame, as a session compacted after every request
	// writes them; and the version-1 fixture.
	var segs bytes.Buffer
	sw := segmentWriter{limit: 1}
	if err := sw.write(&segs, encodeFrames(historyOf(3))); err != nil {
		f.Fatal(err)
	}
	split, err := appendCheckpointHeader(nil, &CheckpointMeta{LastSeq: 3, Frames: 3, RawBytes: int64(len(encodeFrames(historyOf(3))))})
	if err != nil {
		f.Fatal(err)
	}
	split = append(split, segs.Bytes()...)
	v1, err := os.ReadFile("testdata/v1/s-legacy.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(empty)
	f.Add(split)
	f.Add(flipped(split, len(split)-3))
	f.Add(v1)
	f.Add(ckptMagic[:])
	f.Add(img[:len(img)/2])
	f.Add(img[:len(img)-1])
	for _, i := range []int{3, len(ckptMagic) + 1, len(ckptMagic) + frameHeader + 2, len(img) - 8} {
		f.Add(flipped(img, i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, frames, err := decodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrTornLog) {
				t.Fatalf("refusal %v is not ErrTornLog", err)
			}
			return
		}
		// A checkpoint from before RawBytes was recorded gains it (the
		// encoder records it in meta); maps that are empty and nil are one
		// in the file.
		img, err := encodeCheckpoint(&meta, frames)
		if err != nil {
			t.Fatal(err)
		}
		back, again, err := decodeCheckpoint(img)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		want, _ := json.Marshal(meta)
		got, _ := json.Marshal(back)
		if !bytes.Equal(got, want) || !sameFrames(again, frames) {
			t.Fatalf("round trip changed the checkpoint:\n meta %s -> %s\n %d frames -> %d", want, got, len(frames), len(again))
		}
	})
}

// TestCheckpointInflationBounded: a version-1 checkpoint whose body
// inflates far past what its header records is refused after inflating
// about that much, not after materializing the whole body.
func TestCheckpointInflationBounded(t *testing.T) {
	metaJSON, err := json.Marshal(CheckpointMeta{Session: "u", LastSeq: 1, Frames: 1, RawBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	img := AppendFrame(append([]byte(nil), ckptMagicV1[:]...), 0, metaJSON)
	var body bytes.Buffer
	zw, err := flate.NewWriter(&body, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<16)
	for i := 0; i < 1024; i++ { // 64 MiB inflated
		zw.Write(zeros)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	img = append(img, body.Bytes()...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = decodeCheckpoint(img)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTornLog) || !strings.Contains(err.Error(), "inflates past") {
		t.Fatalf("decode: %v, want ErrTornLog for inflating past the header", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
		t.Fatalf("refusing a %d-byte bomb allocated %d bytes", len(img), n)
	}
}
