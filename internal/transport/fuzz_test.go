package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"p2pstream/internal/bandwidth"
)

// FuzzChordContactCodec round-trips every ChordContact-bearing message of
// the chord discovery wire protocol (join, notify, finger-query, lookup,
// plus the graceful leave) through Write/Read/Decode and requires exact
// equality: names are raw bytes on the wire, so arbitrary strings,
// invalid UTF-8 included, come back unchanged. The committed seed corpus
// under testdata pins representative inputs so `go test` exercises them
// forever.
func FuzzChordContactCodec(f *testing.F) {
	f.Add("peer-1", "peer-1:7100", "peer-1:9000", 1, uint64(0), true, 0)
	f.Add("", "", "", 0, uint64(1)<<63, false, 64)
	f.Add("名前\x00\xff", "host:0", "\"quoted\"", -3, ^uint64(0), true, -1)
	f.Fuzz(func(t *testing.T, name, addr, nodeAddr string, class int, key uint64, done bool, hops int) {
		contact := ChordContact{
			Name: name, Addr: addr, NodeAddr: nodeAddr,
			Class: bandwidth.Class(class), Objects: []string{name, addr},
		}
		// Objects made ChordContact non-comparable; equality goes deep.
		same := func(got ChordContact) bool { return reflect.DeepEqual(got, contact) }
		roundTrip := func(kind Kind, in, out any) {
			var buf bytes.Buffer
			if err := Write(&buf, kind, in); err != nil {
				t.Fatalf("write %s: %v", kind, err)
			}
			env, err := Read(&buf)
			if err != nil {
				t.Fatalf("read %s: %v", kind, err)
			}
			if env.Kind != kind {
				t.Fatalf("kind = %s, want %s", env.Kind, kind)
			}
			if err := env.Decode(out); err != nil {
				t.Fatalf("decode %s: %v", env, err)
			}
		}

		var join ChordJoin
		roundTrip(KindChordJoin, ChordJoin{Peer: contact}, &join)
		if !same(join.Peer) {
			t.Errorf("join peer = %+v, want %+v", join.Peer, contact)
		}

		var joinReply ChordJoinReply
		roundTrip(KindChordJoinOK,
			ChordJoinReply{Predecessor: &contact, Successors: []ChordContact{contact, contact}}, &joinReply)
		if joinReply.Predecessor == nil || !same(*joinReply.Predecessor) {
			t.Errorf("join-reply predecessor = %+v, want %+v", joinReply.Predecessor, contact)
		}
		if len(joinReply.Successors) != 2 || !same(joinReply.Successors[0]) || !same(joinReply.Successors[1]) {
			t.Errorf("join-reply successors = %+v", joinReply.Successors)
		}

		var notify ChordNotify
		roundTrip(KindChordNotify, ChordNotify{Peer: contact}, &notify)
		if !same(notify.Peer) {
			t.Errorf("notify peer = %+v, want %+v", notify.Peer, contact)
		}

		var notifyReply ChordNotifyReply
		roundTrip(KindChordNotifyOK, ChordNotifyReply{Successors: []ChordContact{contact}}, &notifyReply)
		if notifyReply.Predecessor != nil {
			t.Errorf("nil predecessor decoded as %+v", notifyReply.Predecessor)
		}
		if len(notifyReply.Successors) != 1 || !same(notifyReply.Successors[0]) {
			t.Errorf("notify-reply successors = %+v", notifyReply.Successors)
		}

		var fq ChordFingerQuery
		roundTrip(KindChordFingerQuery, ChordFingerQuery{Key: key}, &fq)
		if fq.Key != key {
			t.Errorf("finger-query key = %d, want %d", fq.Key, key)
		}

		var fr ChordFingerReply
		roundTrip(KindChordFingerOK, ChordFingerReply{Done: done, Next: contact}, &fr)
		if fr.Done != done || !same(fr.Next) {
			t.Errorf("finger-reply = %+v", fr)
		}

		var lk ChordLookup
		roundTrip(KindChordLookup, ChordLookup{Key: key}, &lk)
		if lk.Key != key {
			t.Errorf("lookup key = %d, want %d", lk.Key, key)
		}

		var lr ChordLookupReply
		roundTrip(KindChordLookupOK, ChordLookupReply{Owner: contact, Hops: hops}, &lr)
		if !same(lr.Owner) || lr.Hops != hops {
			t.Errorf("lookup-reply = %+v", lr)
		}

		var leave ChordLeave
		roundTrip(KindChordLeave,
			ChordLeave{Peer: contact, Predecessor: &contact, Successors: []ChordContact{contact}}, &leave)
		if !same(leave.Peer) || leave.Predecessor == nil || !same(*leave.Predecessor) ||
			len(leave.Successors) != 1 || !same(leave.Successors[0]) {
			t.Errorf("leave = %+v", leave)
		}
	})
}

// FuzzReadCorruptFrame feeds arbitrary bytes to the frame reader: Read and
// ReadExpect must never panic, whatever Read accepts carries a known kind
// within MaxMessageSize, both read paths accept the same bodies, and a
// body that decodes re-encodes (the reader cannot be tricked into state
// the writer cannot render). The seed corpus covers empty and truncated
// frames, oversized length prefixes, wrong versions and kind codes, and
// valid headers over garbage bodies.
func FuzzReadCorruptFrame(f *testing.F) {
	frame := func(kind Kind, body any) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, kind, body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add(frame(KindChordLookup, ChordLookup{Key: 42}))
	f.Add(frame(KindChordLeave, ChordLeave{Peer: ChordContact{Name: "p"}}))
	corrupt := frame(KindChordFingerOK, ChordFingerReply{Done: true})
	f.Add(corrupt[:len(corrupt)-3])
	f.Add([]byte{0, 0, 0, 7, Version, kindCodes[KindChordLookupOK], 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Read(bytes.NewReader(data))
		// ReadExpect must never panic either, whatever the frame holds.
		var reply ChordLookupReply
		_ = ReadExpect(bytes.NewReader(data), KindChordLookupOK, &reply)
		if err != nil {
			return
		}
		if n := binary.BigEndian.Uint32(data[:4]); n > MaxMessageSize {
			t.Fatalf("Read accepted a %d-byte frame beyond MaxMessageSize", n)
		}
		if kindCodes[env.Kind] == 0 {
			t.Fatalf("Read accepted unknown kind %q", env.Kind)
		}
		body := bodyFor(env.Kind)
		derr := env.Decode(body)
		// Both read paths judge a body alike (an error frame surfaces as
		// a RemoteError from ReadExpect by contract).
		eerr := ReadExpect(bytes.NewReader(data), env.Kind, bodyFor(env.Kind))
		if env.Kind != KindError && (derr == nil) != (eerr == nil) {
			t.Fatalf("%s: Decode = %v, ReadExpect = %v", env, derr, eerr)
		}
		if derr != nil {
			return
		}
		if err := Write(io.Discard, env.Kind, body); err != nil {
			t.Fatalf("decoded %s does not re-encode: %v", env, err)
		}
	})
}

// FuzzDecodeBody runs arbitrary bytes through every kind's decoder: no
// decoder may panic, and any body a decoder accepts must re-encode and
// decode back to a deep-equal value.
func FuzzDecodeBody(f *testing.F) {
	cases := codecCases()
	for i, e := range kindTable {
		for _, body := range cases[e.kind] {
			var buf bytes.Buffer
			if err := Write(&buf, e.kind, body); err != nil {
				f.Fatal(err)
			}
			f.Add(byte(i+1), buf.Bytes()[6:])
		}
	}
	f.Fuzz(func(t *testing.T, code byte, body []byte) {
		if code == 0 || int(code) > len(kindTable) {
			code = code%byte(len(kindTable)) + 1
		}
		kind := kindTable[code-1].kind
		out := bodyFor(kind)
		if err := decodeBody(kind, body, out); err != nil {
			return
		}
		enc, err := appendBody(nil, kind, out)
		if err != nil {
			t.Fatalf("accepted %s body %x does not re-encode: %v", kind, body, err)
		}
		back := bodyFor(kind)
		if err := decodeBody(kind, enc, back); err != nil {
			t.Fatalf("re-encoded %s body %x does not decode: %v", kind, enc, err)
		}
		if !reflect.DeepEqual(out, back) {
			t.Fatalf("%s: decoded %+v, re-decoded %+v", kind, out, back)
		}
	})
}
