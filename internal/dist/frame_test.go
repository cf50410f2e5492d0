package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestFrameRoundTrip: a stream of frames reads back as the messages
// written, in order, then ends with io.EOF.
func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	want := []Message{
		{To: "b", From: "a", Kind: "ping", Data: []byte{codecMagic, wirePing, 2}},
		{To: "root", From: "leader-3", Kind: hierKindDown},
		{To: "ünïcode", From: "", Kind: "k", Data: bytes.Repeat([]byte{0xff}, 300)},
	}
	var stream []byte
	for i := range want {
		var err error
		if stream, err = appendFrame(stream, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	for i, w := range want {
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameMessage(got, w) {
			t.Errorf("frame %d = %+v, want %+v", i, got, w)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Errorf("after the last frame: err = %v, want io.EOF", err)
	}
}

// TestReadFrameTooLarge: a length header over the bound is rejected
// with ErrFrameTooLarge before the reader allocates the body.
func TestReadFrameTooLarge(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, maxFrameSize+1)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, err := readFrame(bufio.NewReaderSize(bytes.NewReader(hdr), 16))
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Errorf("rejecting an oversized header allocates %d B, want well under the %d B bound", per, maxFrameSize)
	}
}

// TestAppendFrameTooLarge: the writer refuses a frame the reader would
// reject, and leaves the buffer as it was.
func TestAppendFrameTooLarge(t *testing.T) {
	t.Parallel()
	prefix := []byte("earlier frames")
	b, err := appendFrame(prefix, &Message{Kind: "big", Data: make([]byte, maxFrameSize)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if string(b) != string(prefix) {
		t.Errorf("buffer changed to %d bytes", len(b))
	}
}

// FuzzFrame feeds arbitrary bytes to the TCP frame reader, which sees
// whatever a peer writes. Each read must return a message or a typed
// error, never panic, and reject a length header over the bound before
// allocating; every message read must re-frame to itself.
func FuzzFrame(f *testing.F) {
	var stream []byte
	for _, p := range hierCodecSamples()[:3] {
		m := Message{To: "root", From: "leader-1", Kind: "seed"}
		if err := m.Encode(p); err != nil {
			f.Fatal(err)
		}
		frame, err := appendFrame(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		flipped := append([]byte(nil), frame...)
		flipped[frameLenSize] ^= 0x80
		f.Add(flipped)
		stream = append(stream, frame...)
	}
	f.Add(stream)
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameSize+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		off := 0 // start of the next frame in data
		for {
			m, err := readFrame(r)
			declared := -1
			if len(data)-off >= frameLenSize {
				declared = int(binary.LittleEndian.Uint32(data[off:]))
			}
			if declared > maxFrameSize && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("%d-byte header over the bound read as %+v, %v", declared, m, err)
			}
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
					!errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, errBadFrame) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			off += frameLenSize + declared
			frame, err := appendFrame(nil, &m)
			if err != nil {
				t.Fatalf("re-framing %+v: %v", m, err)
			}
			again, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
			if err != nil || !sameMessage(again, m) {
				t.Fatalf("re-framed %+v read back as %+v, %v", m, again, err)
			}
		}
	})
}

func sameMessage(a, b Message) bool {
	return a.To == b.To && a.From == b.From && a.Kind == b.Kind && bytes.Equal(a.Data, b.Data)
}
