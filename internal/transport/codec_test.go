package transport

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"p2pstream/internal/dac"
)

// sampleContact is a fully populated ring contact.
var sampleContact = ChordContact{
	Name: "peer-7", Addr: "10.0.0.7:7100", NodeAddr: "10.0.0.7:9000", Class: 2,
	Objects: []string{"clip-a", "clip-b"}, Epoch: 3,
}

// codecCases lists, for every kind, bodies covering each field's
// branches: zero values, optional fields set, nil and populated slices,
// present and absent contacts, extreme integers. Slices are nil when
// empty, because the codec decodes empty slices as nil.
func codecCases() map[Kind][]any {
	c := sampleContact
	bare := ChordContact{Name: "p"}
	rec := ChordRecord{Pos: ^uint64(0), Peer: c}
	return map[Kind][]any{
		KindRegister: {
			Register{},
			Register{ID: "s1", Addr: "s1:9", Class: 2, Refresh: true, Object: "clip-b"},
		},
		KindRegisterOK: {nil},
		KindLookup: {
			Lookup{M: 4},
			Lookup{M: -1 << 62, Exclude: "me", Object: "clip-b"},
		},
		KindCandidates: {
			Candidates{},
			Candidates{Peers: []Candidate{{ID: "a", Addr: "a:1", Class: 1}, {ID: "b", Addr: "b:2", Class: 4}}, Len: 512},
		},
		KindProbe: {
			Probe{},
			Probe{RequesterID: "r42", Class: 3, Object: "clip-b"},
		},
		KindProbeReply: {
			ProbeReply{},
			ProbeReply{Decision: dac.DeniedBusy, Favors: true},
		},
		KindReminder: {
			Reminder{RequesterID: "r1", Class: 1, Object: "clip-b"},
		},
		KindReminderOK: {ReminderReply{}, ReminderReply{Kept: true}},
		KindStart: {
			Start{RequesterID: "r", FileName: "clip"},
			Start{RequesterID: "r", FileName: "clip", Segments: []int{0, 2, 1 << 40}, Priority: -2},
		},
		KindStartReply: {StartReply{OK: true}, StartReply{Reason: "claimed"}},
		KindSegment: {
			Segment{ID: 7},
			Segment{ID: 7, Quality: 2, Data: []byte{0, 1, 2, 0xff}},
		},
		KindAck:          {Ack{}, Ack{Seq: 3, Bytes: 4096}},
		KindSessionDone:  {SessionDone{Sent: 4}},
		KindError:        {Error{}, Error{Message: "busy"}},
		KindUnregister:   {Unregister{ID: "s1"}, Unregister{ID: "s1", Object: "clip-b"}},
		KindUnregisterOK: {nil},
		KindRegisterBatch: {
			RegisterBatch{},
			RegisterBatch{Regs: []Register{{ID: "s1", Addr: "s1:9", Class: 1, Object: "a"}, {ID: "s1", Refresh: true}}},
		},
		KindRegisterBatchOK: {nil},
		KindChordJoin:       {ChordJoin{}, ChordJoin{Peer: c}},
		KindChordJoinOK: {
			ChordJoinReply{},
			ChordJoinReply{Predecessor: &bare, Successors: []ChordContact{c, bare}},
		},
		KindChordNotify: {ChordNotify{Peer: c}},
		KindChordNotifyOK: {
			ChordNotifyReply{},
			ChordNotifyReply{Predecessor: &c, Successors: []ChordContact{c}, Self: &bare},
		},
		KindChordFingerQuery: {ChordFingerQuery{}, ChordFingerQuery{Key: 1 << 63}},
		KindChordFingerOK: {
			ChordFingerReply{Next: bare},
			ChordFingerReply{Done: true, Next: c, Backups: []ChordContact{bare, c}},
		},
		KindChordLookup:   {ChordLookup{Key: 42}, ChordLookup{Key: ^uint64(0), Topo: true}},
		KindChordLookupOK: {ChordLookupReply{Owner: c, Hops: 5}},
		KindChordLeave: {
			ChordLeave{Peer: bare},
			ChordLeave{Peer: c, Predecessor: &bare, Successors: []ChordContact{c}, Records: []ChordRecord{rec, {Peer: bare}}},
		},
		KindChordLeaveOK: {ChordLeaveReply{}},
		KindChordReplicate: {
			ChordReplicate{},
			ChordReplicate{Replace: true, Withdraw: true, Lo: 1, Hi: ^uint64(0), Records: []ChordRecord{rec}, Hops: 3},
		},
		KindChordReplicateOK: {ChordReplicateReply{}},
		KindChordReplicaPull: {
			ChordReplicaPull{Key: 9},
			ChordReplicaPull{Key: 9, Dead: []string{"x", ""}, All: true, Lo: 5, Hi: 4},
		},
		KindChordReplicaPullOK: {
			ChordReplicaPullReply{},
			ChordReplicaPullReply{Found: true, Record: rec, Records: []ChordRecord{rec, rec}},
		},
		KindDirEpochWatch: {DirEpochWatch{}, struct{}{}},
		KindDirEpoch: {
			DirEpoch{},
			DirEpoch{Epoch: 7, Shards: []DirShard{{Name: "shard-0", Addr: "d0:7420"}, {Name: "shard-1", Addr: "d1:7420"}}},
		},
	}
}

// frameOf writes one frame.
func frameOf(t testing.TB, kind Kind, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, kind, body); err != nil {
		t.Fatalf("Write(%s, %+v): %v", kind, body, err)
	}
	return buf.Bytes()
}

// roundTrip writes body as kind and decodes it back through both read
// paths (Read+Decode, and ReadExpect straight out of the pooled buffer),
// requiring the two to agree.
func roundTrip(t *testing.T, kind Kind, body any) any {
	t.Helper()
	frame := frameOf(t, kind, body)
	env, err := Read(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("Read(%s): %v", kind, err)
	}
	if env.Kind != kind {
		t.Fatalf("kind = %s, want %s", env.Kind, kind)
	}
	newBody := kindTable[kindCodes[kind]-1].newBody
	if newBody == nil {
		if len(env.Body) != 0 {
			t.Fatalf("bodiless %s carries %s", kind, env)
		}
		return nil
	}
	viaEnv, viaExpect := newBody(), newBody()
	if err := env.Decode(viaEnv); err != nil {
		t.Fatalf("Decode(%s): %v", env, err)
	}
	err = ReadExpect(bytes.NewReader(frame), kind, viaExpect)
	var remote *RemoteError
	if kind == KindError && errors.As(err, &remote) {
		// An error frame surfaces as a RemoteError by contract.
		viaExpect.(*Error).Message, err = remote.Message, nil
	}
	if err != nil {
		t.Fatalf("ReadExpect(%s): %v", env, err)
	}
	if !reflect.DeepEqual(viaEnv, viaExpect) {
		t.Fatalf("%s: Decode = %+v, ReadExpect = %+v", kind, viaEnv, viaExpect)
	}
	return reflect.ValueOf(viaEnv).Elem().Interface()
}

// TestCodecRoundTripsEveryKind: every kind in the table has cases, and
// every case decodes back deep-equal to what was written, passed by value
// and by pointer.
func TestCodecRoundTripsEveryKind(t *testing.T) {
	cases := codecCases()
	if len(kindTable) != 34 || len(kindCodes) != len(kindTable) {
		t.Fatalf("kind table has %d entries (%d distinct), want 34", len(kindTable), len(kindCodes))
	}
	for _, e := range kindTable {
		if len(cases[e.kind]) == 0 {
			t.Errorf("no codec cases for %s", e.kind)
		}
	}
	for kind, bodies := range cases {
		for _, body := range bodies {
			got := roundTrip(t, kind, body)
			if body == nil || reflect.TypeOf(body).NumField() == 0 {
				continue
			}
			if !reflect.DeepEqual(got, body) {
				t.Errorf("%s: round trip = %+v, want %+v", kind, got, body)
			}
			ptr := reflect.New(reflect.TypeOf(body))
			ptr.Elem().Set(reflect.ValueOf(body))
			if got := roundTrip(t, kind, ptr.Interface()); !reflect.DeepEqual(got, body) {
				t.Errorf("%s: pointer round trip = %+v, want %+v", kind, got, body)
			}
		}
	}
}

// TestCodecEmptySlicesDecodeNil: nil and empty slices share one encoding
// and both decode as nil.
func TestCodecEmptySlicesDecodeNil(t *testing.T) {
	got := roundTrip(t, KindStart, Start{RequesterID: "r", Segments: []int{}}).(Start)
	if got.Segments != nil {
		t.Errorf("empty segments decoded as %#v, want nil", got.Segments)
	}
	seg := roundTrip(t, KindSegment, Segment{ID: 1, Data: []byte{}}).(Segment)
	if seg.Data != nil {
		t.Errorf("empty data decoded as %#v, want nil", seg.Data)
	}
}

// TestCodecExactStrings: names reach the receiver byte for byte, HTML
// metacharacters, invalid UTF-8 and quotes included. Chord hashes member
// names to ring positions, so any rewrite would move a member.
func TestCodecExactStrings(t *testing.T) {
	for _, name := range []string{"a<b&c>", "x\xff", "名前", `say "hi"`} {
		contact := ChordContact{Name: name, Addr: name, NodeAddr: name, Objects: []string{name}}
		if got := roundTrip(t, KindChordNotify, ChordNotify{Peer: contact}).(ChordNotify); !reflect.DeepEqual(got.Peer, contact) {
			t.Errorf("ChordContact %q: got %+v", name, got.Peer)
		}
		probe := Probe{RequesterID: name, Class: 1, Object: name}
		if got := roundTrip(t, KindProbe, probe); got != probe {
			t.Errorf("Probe %q: got %+v", name, got)
		}
		reg := Register{ID: name, Addr: name, Class: 2, Object: name}
		if got := roundTrip(t, KindRegister, reg); got != reg {
			t.Errorf("Register %q: got %+v", name, got)
		}
	}
}

// TestWrongVersionRejected: a frame whose version byte is not Version is
// rejected with ErrVersion by both read paths.
func TestWrongVersionRejected(t *testing.T) {
	frame := frameOf(t, KindProbe, Probe{RequesterID: "r"})
	if frame[4] != Version {
		t.Fatalf("version byte = %d, want %d", frame[4], Version)
	}
	frame[4] = Version + 1
	if _, err := Read(bytes.NewReader(frame)); !errors.Is(err, ErrVersion) {
		t.Errorf("Read: err = %v, want ErrVersion", err)
	}
	if err := ReadExpect(bytes.NewReader(frame), KindProbe, new(Probe)); !errors.Is(err, ErrVersion) {
		t.Errorf("ReadExpect: err = %v, want ErrVersion", err)
	}
}

// TestUnknownKindRejected: unknown kind codes fail to read, and unknown
// kinds fail to write.
func TestUnknownKindRejected(t *testing.T) {
	for _, code := range []byte{0, byte(len(kindTable) + 1), 0xff} {
		frame := []byte{0, 0, 0, 2, Version, code}
		if _, err := Read(bytes.NewReader(frame)); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("code %d: err = %v, want ErrUnknownKind", code, err)
		}
	}
	if _, err := Read(bytes.NewReader([]byte{0, 0, 0, 1, Version})); !errors.Is(err, ErrMalformed) {
		t.Errorf("frame without kind code: err = %v, want ErrMalformed", err)
	}
	if err := Write(io.Discard, Kind("no-such-kind"), nil); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("Write(unknown kind): err = %v, want ErrUnknownKind", err)
	}
}

// TestTrailingBytesRejected: a body must scan exactly to its end.
func TestTrailingBytesRejected(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		body any
	}{
		{KindAck, Ack{Seq: 1, Bytes: 2}},
		{KindRegisterOK, nil},
		{KindChordLeaveOK, ChordLeaveReply{}},
	} {
		frame := append(frameOf(t, tc.kind, tc.body), 0)
		frame[3]++
		env, err := Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: Read: %v", tc.kind, err)
		}
		if err := env.Decode(bodyFor(tc.kind)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Decode = %v, want ErrMalformed", env, err)
		}
		if err := ReadExpect(bytes.NewReader(frame), tc.kind, bodyFor(tc.kind)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: ReadExpect = %v, want ErrMalformed", env, err)
		}
	}
}

// bodyFor returns a fresh decode target for kind: its body type, or
// *struct{} for bodiless kinds.
func bodyFor(kind Kind) any {
	if nb := kindTable[kindCodes[kind]-1].newBody; nb != nil {
		return nb()
	}
	return new(struct{})
}

// TestHostileCountNoLargeAllocation: a 12-byte chord-notify-ok frame
// claiming 2^30 successors is rejected before any slice is sized by the
// claimed count.
func TestHostileCountNoLargeAllocation(t *testing.T) {
	frame := []byte{0, 0, 0, 8, Version, kindCodes[KindChordNotifyOK],
		0,                            // no predecessor
		0x80, 0x80, 0x80, 0x80, 0x04, // uvarint 2^30 successors
	}
	if len(frame) != 12 {
		t.Fatalf("frame is %d bytes", len(frame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for range runs {
		var reply ChordNotifyReply
		if err := ReadExpect(bytes.NewReader(frame), KindChordNotifyOK, &reply); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4<<10 {
		t.Errorf("rejecting the frame allocated %d bytes per read", perRun)
	}
}

// TestBodyMismatchRejected: bodies are tied to their kinds both ways.
func TestBodyMismatchRejected(t *testing.T) {
	if err := Write(io.Discard, KindProbe, Segment{}); !errors.Is(err, ErrBodyMismatch) {
		t.Errorf("Write(probe, Segment) = %v, want ErrBodyMismatch", err)
	}
	if err := Write(io.Discard, KindProbe, nil); !errors.Is(err, ErrBodyMismatch) {
		t.Errorf("Write(probe, nil) = %v, want ErrBodyMismatch", err)
	}
	if err := Write(io.Discard, KindRegisterOK, Probe{}); !errors.Is(err, ErrBodyMismatch) {
		t.Errorf("Write(register-ok, Probe) = %v, want ErrBodyMismatch", err)
	}
	env, err := Read(bytes.NewReader(frameOf(t, KindProbe, Probe{RequesterID: "r"})))
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []any{new(Reminder), new(Segment), new(struct{})} {
		if err := env.Decode(out); !errors.Is(err, ErrBodyMismatch) {
			t.Errorf("Decode(%s into %T) = %v, want ErrBodyMismatch", env, out, err)
		}
	}
}

// TestEnvelopeString: the dumper shows decoded fields, and raw bytes for
// a body that does not decode.
func TestEnvelopeString(t *testing.T) {
	env, err := Read(bytes.NewReader(frameOf(t, KindProbe, Probe{RequesterID: "r9", Class: 2})))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := env.String(), "probe &{RequesterID:r9 Class:class-2 Object:}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	env.Body = append(env.Body, 0xab)
	if got := env.String(); !bytes.Contains([]byte(got), []byte("ab")) {
		t.Errorf("undecodable String() = %q, want raw bytes", got)
	}
	bare := &Envelope{Kind: KindRegisterOK}
	if got := bare.String(); got != "register-ok" {
		t.Errorf("bodiless String() = %q", got)
	}
}

// TestEncodeAllocs: encoding any kind allocates nothing.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for kind, bodies := range codecCases() {
		body := bodies[len(bodies)-1]
		if n := testing.AllocsPerRun(100, func() { _ = Write(io.Discard, kind, body) }); n != 0 {
			t.Errorf("Write(%s) = %v allocs, want 0", kind, n)
		}
	}
}

// BenchmarkCodec measures one frame's encode (Write) and decode
// (ReadExpect) per kind, on the most populated codec case.
func BenchmarkCodec(b *testing.B) {
	cases := codecCases()
	for _, e := range kindTable {
		bodies := cases[e.kind]
		body := bodies[len(bodies)-1]
		frame := frameOf(b, e.kind, body)
		b.Run(string(e.kind), func(b *testing.B) {
			b.Run("encode", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(frame)))
				for b.Loop() {
					if err := Write(io.Discard, e.kind, body); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("decode", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(frame)))
				out := bodyFor(e.kind)
				rd := bytes.NewReader(frame)
				for b.Loop() {
					rd.Reset(frame)
					err := ReadExpect(rd, e.kind, out)
					if err != nil && e.kind != KindError {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
