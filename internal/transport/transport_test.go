package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"p2pstream/internal/dac"
)

func TestWriteReadRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []struct {
		kind Kind
		body any
	}{
		{KindRegister, Register{ID: "n1", Addr: "127.0.0.1:9", Class: 2}},
		{KindLookup, Lookup{M: 8, Exclude: "n1"}},
		{KindCandidates, Candidates{Peers: []Candidate{{ID: "a", Addr: "x", Class: 1}}}},
		{KindProbe, Probe{RequesterID: "r", Class: 3}},
		{KindProbeReply, ProbeReply{Decision: dac.DeniedBusy, Favors: true}},
		{KindReminder, Reminder{RequesterID: "r", Class: 2}},
		{KindStart, Start{RequesterID: "r", FileName: "f", Segments: []int{0, 1, 3, 7}}},
		{KindSegment, Segment{ID: 5, Data: []byte{1, 2, 3}}},
		{KindSessionDone, SessionDone{Sent: 4}},
		{KindError, Error{Message: "boom"}},
	}
	for _, m := range msgs {
		if err := Write(&buf, m.kind, m.body); err != nil {
			t.Fatalf("Write(%s): %v", m.kind, err)
		}
	}
	for _, m := range msgs {
		env, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(%s): %v", m.kind, err)
		}
		if env.Kind != m.kind {
			t.Fatalf("read %s, want kind %s", env, m.kind)
		}
	}
	if _, err := Read(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("Read on empty = %v, want EOF", err)
	}
}

func TestRoundtripPreservesFields(t *testing.T) {
	var buf bytes.Buffer
	in := Start{RequesterID: "req", FileName: "video", Segments: []int{2, 6, 10}}
	if err := Write(&buf, KindStart, in); err != nil {
		t.Fatal(err)
	}
	var out Start
	if err := ReadExpect(&buf, KindStart, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequesterID != in.RequesterID || out.FileName != in.FileName || len(out.Segments) != 3 {
		t.Errorf("roundtrip = %+v", out)
	}
	for i := range in.Segments {
		if out.Segments[i] != in.Segments[i] {
			t.Errorf("segments = %v", out.Segments)
		}
	}
}

func TestReadExpectWrongKind(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, KindProbe, Probe{})
	err := ReadExpect(&buf, KindProbeReply, &ProbeReply{})
	if err == nil || !strings.Contains(err.Error(), "want probe-reply") {
		t.Errorf("err = %v", err)
	}
}

func TestReadExpectErrorPassthrough(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, KindError, Error{Message: "busy"})
	err := ReadExpect(&buf, KindProbeReply, &ProbeReply{})
	if err == nil || !strings.Contains(err.Error(), "busy") {
		t.Errorf("err = %v", err)
	}
}

func TestReadExpectNilOut(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, KindRegisterOK, struct{}{})
	if err := ReadExpect(&buf, KindRegisterOK, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxMessageSize+1)
	buf.Write(lenBuf[:])
	if _, err := Read(&buf); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestReadRejectsZeroFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := Read(&buf); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestReadGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 4})
	buf.WriteString("{{{{")
	if env, err := Read(&buf); err == nil {
		t.Errorf("garbage frame read as %s", env)
	}
}

func TestReadTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10})
	buf.WriteString("abc")
	if _, err := Read(&buf); err == nil {
		t.Error("truncated body should fail")
	}
}

func TestWriteRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	big := Segment{ID: 0, Data: make([]byte, MaxMessageSize)}
	if err := Write(&buf, KindSegment, big); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v, want ErrMessageTooLarge", err)
	}
}

func TestWriteUnencodableBody(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, KindError, make(chan int)); err == nil {
		t.Error("unencodable body should fail")
	}
}

func TestDecodeMismatch(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, KindSegment, Segment{ID: 1})
	env, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wrong []int
	if err := env.Decode(&wrong); err == nil {
		t.Errorf("decoding %s into a slice should fail", env)
	}
}

// TestReadBodyOutlivesPooledBuffer: the envelope body returned by Read must
// stay intact after the pooled read buffer is reused by later reads.
func TestReadBodyOutlivesPooledBuffer(t *testing.T) {
	var wire bytes.Buffer
	if err := Write(&wire, KindError, Error{Message: "first"}); err != nil {
		t.Fatal(err)
	}
	env, err := Read(bytes.NewReader(wire.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := string(env.Body)
	for i := 0; i < 64; i++ {
		var w bytes.Buffer
		if err := Write(&w, KindError, Error{Message: strings.Repeat("x", 100+i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(w.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	if string(env.Body) != snapshot {
		t.Errorf("body mutated after buffer reuse: %s, want %q", env, snapshot)
	}
}
