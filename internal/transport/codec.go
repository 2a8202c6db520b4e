package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
)

// The wire codec. Every message body has exactly one append function
// (appendWire, a value method, so Write takes T and *T alike) and one
// bounds-checked scan function (scanWire). Field encodings:
//
//   - strings and byte slices: uvarint length, then the raw bytes;
//   - int, int64, bandwidth.Class, dac.Decision: zig-zag varint;
//   - uint64 chord keys and ring positions: 8 bytes, big-endian;
//   - bool: one byte, 0 or 1 (anything else is malformed);
//   - optional *ChordContact: presence byte, then the contact when 1;
//   - slices: uvarint element count, then the elements. Nil and empty
//     encode alike and decode as nil.
//
// Fields appear in struct declaration order, all of them, always.

// Sentinel errors of the codec; failures wrap them with the kind or
// type involved, so callers branch with errors.Is.
var (
	// ErrVersion: the frame's version byte is not Version.
	ErrVersion = errors.New("transport: unsupported frame version")
	// ErrUnknownKind: the frame's kind code (or the Kind given to Write)
	// is not in the kind table.
	ErrUnknownKind = errors.New("transport: unknown message kind")
	// ErrMalformed: a body or frame header is truncated, carries trailing
	// bytes, an out-of-range bool, or an element count larger than the
	// bytes left to hold it.
	ErrMalformed = errors.New("transport: malformed message")
	// ErrBodyMismatch: the Go value given to Write or Decode is not the
	// body type of the message kind.
	ErrBodyMismatch = errors.New("transport: body type does not match kind")
)

// wireEncoder is implemented by every message body type T (and so by *T).
type wireEncoder interface {
	wireKind() Kind
	appendWire([]byte) []byte
}

// wireBody is implemented by *T for every message body type T.
// scanWire takes and returns its cursor by value: a pointer passed
// through the interface would move every decode's scanner to the heap.
type wireBody interface {
	wireEncoder
	scanWire(scanner) scanner
}

// kindTable assigns every kind its wire code, the entry's index plus one
// (code 0 is never valid). Codes are part of the wire format: new kinds
// are appended, existing ones never reordered. newBody is nil for the
// kinds that carry no body.
var kindTable = [...]struct {
	kind    Kind
	newBody func() wireBody
}{
	{KindRegister, func() wireBody { return new(Register) }},
	{KindRegisterOK, nil},
	{KindLookup, func() wireBody { return new(Lookup) }},
	{KindCandidates, func() wireBody { return new(Candidates) }},
	{KindProbe, func() wireBody { return new(Probe) }},
	{KindProbeReply, func() wireBody { return new(ProbeReply) }},
	{KindReminder, func() wireBody { return new(Reminder) }},
	{KindReminderOK, func() wireBody { return new(ReminderReply) }},
	{KindStart, func() wireBody { return new(Start) }},
	{KindStartReply, func() wireBody { return new(StartReply) }},
	{KindSegment, func() wireBody { return new(Segment) }},
	{KindAck, func() wireBody { return new(Ack) }},
	{KindSessionDone, func() wireBody { return new(SessionDone) }},
	{KindError, func() wireBody { return new(Error) }},
	{KindUnregister, func() wireBody { return new(Unregister) }},
	{KindUnregisterOK, nil},
	{KindRegisterBatch, func() wireBody { return new(RegisterBatch) }},
	{KindRegisterBatchOK, nil},
	{KindChordJoin, func() wireBody { return new(ChordJoin) }},
	{KindChordJoinOK, func() wireBody { return new(ChordJoinReply) }},
	{KindChordNotify, func() wireBody { return new(ChordNotify) }},
	{KindChordNotifyOK, func() wireBody { return new(ChordNotifyReply) }},
	{KindChordFingerQuery, func() wireBody { return new(ChordFingerQuery) }},
	{KindChordFingerOK, func() wireBody { return new(ChordFingerReply) }},
	{KindChordLookup, func() wireBody { return new(ChordLookup) }},
	{KindChordLookupOK, func() wireBody { return new(ChordLookupReply) }},
	{KindChordLeave, func() wireBody { return new(ChordLeave) }},
	{KindChordLeaveOK, nil},
	{KindChordReplicate, func() wireBody { return new(ChordReplicate) }},
	{KindChordReplicateOK, nil},
	{KindChordReplicaPull, func() wireBody { return new(ChordReplicaPull) }},
	{KindChordReplicaPullOK, func() wireBody { return new(ChordReplicaPullReply) }},
	{KindDirEpochWatch, nil},
	{KindDirEpoch, func() wireBody { return new(DirEpoch) }},
}

// kindCodes inverts kindTable.
var kindCodes = func() map[Kind]byte {
	m := make(map[Kind]byte, len(kindTable))
	for i, e := range kindTable {
		m[e.kind] = byte(i + 1)
	}
	return m
}()

// bodiless reports whether kind is a known kind that carries no body.
func bodiless(kind Kind) bool {
	code := kindCodes[kind]
	return code != 0 && kindTable[code-1].newBody == nil
}

// appendBody appends body's encoding as a kind message. Bodiless kinds
// take nil, struct{}{} or their named empty type (value or pointer).
func appendBody(dst []byte, kind Kind, body any) ([]byte, error) {
	switch b := body.(type) {
	case nil, struct{}, *struct{}, DirEpochWatch, *DirEpochWatch,
		ChordLeaveReply, *ChordLeaveReply, ChordReplicateReply, *ChordReplicateReply:
		if bodiless(kind) {
			return dst, nil
		}
	case wireEncoder:
		if b.wireKind() == kind {
			return b.appendWire(dst), nil
		}
	}
	return dst, fmt.Errorf("%w: cannot encode %T as %s", ErrBodyMismatch, body, kind)
}

// decodeBody decodes a kind message's body into out. Decoded values
// never share body's storage.
func decodeBody(kind Kind, body []byte, out any) error {
	switch o := out.(type) {
	case *struct{}, *DirEpochWatch, *ChordLeaveReply, *ChordReplicateReply:
		if !bodiless(kind) {
			break
		}
		if len(body) != 0 {
			return fmt.Errorf("%w: %d trailing bytes after %s", ErrMalformed, len(body), kind)
		}
		return nil
	case wireBody:
		if o.wireKind() != kind {
			break
		}
		s := o.scanWire(scanner{b: body})
		if s.bad {
			return fmt.Errorf("%w: %s body", ErrMalformed, kind)
		}
		if len(s.b) != 0 {
			return fmt.Errorf("%w: %d trailing bytes after %s", ErrMalformed, len(s.b), kind)
		}
		return nil
	}
	return fmt.Errorf("%w: cannot decode %s into %T", ErrBodyMismatch, kind, out)
}

// scanner is a bounds-checked cursor over one message body. The first
// malformed field sets bad and empties the cursor; every later read
// returns a zero value, so a decoder runs straight through and the caller
// checks once at the end.
type scanner struct {
	b   []byte
	bad bool
}

func (s *scanner) fail() {
	s.bad = true
	s.b = nil
}

func (s *scanner) uvarint() uint64 {
	v, n := binary.Uvarint(s.b)
	if n <= 0 {
		s.fail()
		return 0
	}
	s.b = s.b[n:]
	return v
}

func (s *scanner) varint() int64 {
	v, n := binary.Varint(s.b)
	if n <= 0 {
		s.fail()
		return 0
	}
	s.b = s.b[n:]
	return v
}

func (s *scanner) int() int { return int(s.varint()) }

func (s *scanner) u64() uint64 {
	if len(s.b) < 8 {
		s.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(s.b)
	s.b = s.b[8:]
	return v
}

func (s *scanner) bool() bool {
	if len(s.b) == 0 || s.b[0] > 1 {
		s.fail()
		return false
	}
	v := s.b[0] == 1
	s.b = s.b[1:]
	return v
}

// raw returns the next length-prefixed byte run as a sub-slice of the body.
func (s *scanner) raw() []byte {
	n := s.uvarint()
	if n > uint64(len(s.b)) {
		s.fail()
		return nil
	}
	v := s.b[:n:n]
	s.b = s.b[n:]
	return v
}

func (s *scanner) str() string { return string(s.raw()) }

// byteSlice copies the next byte run out of the body. Aliasing the body
// instead would save a copy but make every stored segment pin its whole
// frame body: a 4 KiB payload plus its few header bytes lands in the
// 4864-byte size class, 19% more retained heap per stored segment.
func (s *scanner) byteSlice() []byte {
	v := s.raw()
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

// count reads a slice length and rejects one that the bytes left could
// not hold at minSize bytes per element, so a hostile count never sizes
// an allocation.
func (s *scanner) count(minSize int) int {
	n := s.uvarint()
	if n > uint64(len(s.b)/minSize) {
		s.fail()
		return 0
	}
	return int(n)
}

// scanSlice decodes a counted slice whose elements occupy at least
// minSize wire bytes each.
func scanSlice[T any](s *scanner, minSize int, scan func(*T, scanner) scanner) []T {
	n := s.count(minSize)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		*s = scan(&out[i], *s)
	}
	return out
}

func appendSlice[T any](dst []byte, xs []T, app func(T, []byte) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = app(x, dst)
	}
	return dst
}

func appendStr(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

// Minimum wire sizes of repeated elements, for count's bound.
const (
	minStr      = 1                    // length byte
	minInt      = 1                    // one varint byte
	minContact  = 3*minStr + 1 + 1 + 1 // 3 strings, class, object count, epoch
	minRecord   = 8 + minContact
	minRegister = 2*minStr + minInt + 1 + minStr
)

func strElem(v string, dst []byte) []byte  { return appendStr(dst, v) }
func scanStr(v *string, s scanner) scanner { *v = s.str(); return s }
func intElem(v int, dst []byte) []byte     { return appendInt(dst, v) }
func scanInt(v *int, s scanner) scanner    { *v = s.int(); return s }

func appendOptContact(dst []byte, c *ChordContact) []byte {
	if c == nil {
		return append(dst, 0)
	}
	return c.appendWire(append(dst, 1))
}

func scanOptContact(s *scanner) *ChordContact {
	if !s.bool() {
		return nil
	}
	c := new(ChordContact)
	*s = c.scanWire(*s)
	return c
}

// --- directory kinds ---

func (Register) wireKind() Kind { return KindRegister }

func (r Register) appendWire(dst []byte) []byte {
	dst = appendStr(dst, r.ID)
	dst = appendStr(dst, r.Addr)
	dst = appendInt(dst, int(r.Class))
	dst = appendBool(dst, r.Refresh)
	return appendStr(dst, r.Object)
}

func (r *Register) scanWire(s scanner) scanner {
	r.ID = s.str()
	r.Addr = s.str()
	r.Class = bandwidth.Class(s.int())
	r.Refresh = s.bool()
	r.Object = s.str()
	return s
}

func (RegisterBatch) wireKind() Kind { return KindRegisterBatch }

func (b RegisterBatch) appendWire(dst []byte) []byte {
	return appendSlice(dst, b.Regs, Register.appendWire)
}

func (b *RegisterBatch) scanWire(s scanner) scanner {
	b.Regs = scanSlice(&s, minRegister, (*Register).scanWire)
	return s
}

func (Unregister) wireKind() Kind { return KindUnregister }

func (u Unregister) appendWire(dst []byte) []byte {
	return appendStr(appendStr(dst, u.ID), u.Object)
}

func (u *Unregister) scanWire(s scanner) scanner {
	u.ID = s.str()
	u.Object = s.str()
	return s
}

func (DirEpoch) wireKind() Kind { return KindDirEpoch }

func (e DirEpoch) appendWire(dst []byte) []byte {
	dst = binary.AppendVarint(dst, e.Epoch)
	return appendSlice(dst, e.Shards, func(sh DirShard, dst []byte) []byte {
		return appendStr(appendStr(dst, sh.Name), sh.Addr)
	})
}

func (e *DirEpoch) scanWire(s scanner) scanner {
	e.Epoch = s.varint()
	e.Shards = scanSlice(&s, 2*minStr, func(sh *DirShard, s scanner) scanner {
		sh.Name = s.str()
		sh.Addr = s.str()
		return s
	})
	return s
}

func (Lookup) wireKind() Kind { return KindLookup }

func (l Lookup) appendWire(dst []byte) []byte {
	dst = appendInt(dst, l.M)
	return appendStr(appendStr(dst, l.Exclude), l.Object)
}

func (l *Lookup) scanWire(s scanner) scanner {
	l.M = s.int()
	l.Exclude = s.str()
	l.Object = s.str()
	return s
}

func (Candidates) wireKind() Kind { return KindCandidates }

func (c Candidates) appendWire(dst []byte) []byte {
	dst = appendSlice(dst, c.Peers, func(p Candidate, dst []byte) []byte {
		return appendInt(appendStr(appendStr(dst, p.ID), p.Addr), int(p.Class))
	})
	return appendInt(dst, c.Len)
}

func (c *Candidates) scanWire(s scanner) scanner {
	c.Peers = scanSlice(&s, 2*minStr+minInt, func(p *Candidate, s scanner) scanner {
		p.ID = s.str()
		p.Addr = s.str()
		p.Class = bandwidth.Class(s.int())
		return s
	})
	c.Len = s.int()
	return s
}

// --- admission kinds ---

func (Probe) wireKind() Kind { return KindProbe }

func (p Probe) appendWire(dst []byte) []byte {
	dst = appendStr(dst, p.RequesterID)
	dst = appendInt(dst, int(p.Class))
	return appendStr(dst, p.Object)
}

func (p *Probe) scanWire(s scanner) scanner {
	p.RequesterID = s.str()
	p.Class = bandwidth.Class(s.int())
	p.Object = s.str()
	return s
}

func (ProbeReply) wireKind() Kind { return KindProbeReply }

func (r ProbeReply) appendWire(dst []byte) []byte {
	return appendBool(appendInt(dst, int(r.Decision)), r.Favors)
}

func (r *ProbeReply) scanWire(s scanner) scanner {
	r.Decision = dac.Decision(s.int())
	r.Favors = s.bool()
	return s
}

func (Reminder) wireKind() Kind { return KindReminder }

func (r Reminder) appendWire(dst []byte) []byte { return Probe(r).appendWire(dst) }

func (r *Reminder) scanWire(s scanner) scanner { return (*Probe)(r).scanWire(s) }

func (ReminderReply) wireKind() Kind { return KindReminderOK }

func (r ReminderReply) appendWire(dst []byte) []byte { return appendBool(dst, r.Kept) }

func (r *ReminderReply) scanWire(s scanner) scanner {
	r.Kept = s.bool()
	return s
}

// --- session kinds ---

func (Start) wireKind() Kind { return KindStart }

func (st Start) appendWire(dst []byte) []byte {
	dst = appendStr(appendStr(dst, st.RequesterID), st.FileName)
	dst = appendSlice(dst, st.Segments, intElem)
	return appendInt(dst, st.Priority)
}

func (st *Start) scanWire(s scanner) scanner {
	st.RequesterID = s.str()
	st.FileName = s.str()
	st.Segments = scanSlice(&s, minInt, scanInt)
	st.Priority = s.int()
	return s
}

func (StartReply) wireKind() Kind { return KindStartReply }

func (r StartReply) appendWire(dst []byte) []byte {
	return appendStr(appendBool(dst, r.OK), r.Reason)
}

func (r *StartReply) scanWire(s scanner) scanner {
	r.OK = s.bool()
	r.Reason = s.str()
	return s
}

func (Segment) wireKind() Kind { return KindSegment }

func (sg Segment) appendWire(dst []byte) []byte {
	dst = appendInt(appendInt(dst, sg.ID), sg.Quality)
	dst = binary.AppendUvarint(dst, uint64(len(sg.Data)))
	return append(dst, sg.Data...)
}

func (sg *Segment) scanWire(s scanner) scanner {
	sg.ID = s.int()
	sg.Quality = s.int()
	sg.Data = s.byteSlice()
	return s
}

func (Ack) wireKind() Kind { return KindAck }

func (a Ack) appendWire(dst []byte) []byte { return appendInt(appendInt(dst, a.Seq), a.Bytes) }

func (a *Ack) scanWire(s scanner) scanner {
	a.Seq = s.int()
	a.Bytes = s.int()
	return s
}

func (SessionDone) wireKind() Kind { return KindSessionDone }

func (d SessionDone) appendWire(dst []byte) []byte { return appendInt(dst, d.Sent) }

func (d *SessionDone) scanWire(s scanner) scanner {
	d.Sent = s.int()
	return s
}

func (Error) wireKind() Kind { return KindError }

func (e Error) appendWire(dst []byte) []byte { return appendStr(dst, e.Message) }

func (e *Error) scanWire(s scanner) scanner {
	e.Message = s.str()
	return s
}

// --- chord kinds ---

func (c ChordContact) appendWire(dst []byte) []byte {
	dst = appendStr(dst, c.Name)
	dst = appendStr(dst, c.Addr)
	dst = appendStr(dst, c.NodeAddr)
	dst = appendInt(dst, int(c.Class))
	dst = appendSlice(dst, c.Objects, strElem)
	return binary.AppendVarint(dst, c.Epoch)
}

func (c *ChordContact) scanWire(s scanner) scanner {
	c.Name = s.str()
	c.Addr = s.str()
	c.NodeAddr = s.str()
	c.Class = bandwidth.Class(s.int())
	c.Objects = scanSlice(&s, minStr, scanStr)
	c.Epoch = s.varint()
	return s
}

func (r ChordRecord) appendWire(dst []byte) []byte {
	return r.Peer.appendWire(binary.BigEndian.AppendUint64(dst, r.Pos))
}

func (r *ChordRecord) scanWire(s scanner) scanner {
	r.Pos = s.u64()
	s = r.Peer.scanWire(s)
	return s
}

func (ChordJoin) wireKind() Kind { return KindChordJoin }

func (j ChordJoin) appendWire(dst []byte) []byte { return j.Peer.appendWire(dst) }

func (j *ChordJoin) scanWire(s scanner) scanner { return j.Peer.scanWire(s) }

func (ChordJoinReply) wireKind() Kind { return KindChordJoinOK }

func (r ChordJoinReply) appendWire(dst []byte) []byte {
	dst = appendOptContact(dst, r.Predecessor)
	return appendSlice(dst, r.Successors, ChordContact.appendWire)
}

func (r *ChordJoinReply) scanWire(s scanner) scanner {
	r.Predecessor = scanOptContact(&s)
	r.Successors = scanSlice(&s, minContact, (*ChordContact).scanWire)
	return s
}

func (ChordNotify) wireKind() Kind { return KindChordNotify }

func (n ChordNotify) appendWire(dst []byte) []byte { return n.Peer.appendWire(dst) }

func (n *ChordNotify) scanWire(s scanner) scanner { return n.Peer.scanWire(s) }

func (ChordNotifyReply) wireKind() Kind { return KindChordNotifyOK }

func (r ChordNotifyReply) appendWire(dst []byte) []byte {
	dst = appendOptContact(dst, r.Predecessor)
	dst = appendSlice(dst, r.Successors, ChordContact.appendWire)
	return appendOptContact(dst, r.Self)
}

func (r *ChordNotifyReply) scanWire(s scanner) scanner {
	r.Predecessor = scanOptContact(&s)
	r.Successors = scanSlice(&s, minContact, (*ChordContact).scanWire)
	r.Self = scanOptContact(&s)
	return s
}

func (ChordFingerQuery) wireKind() Kind { return KindChordFingerQuery }

func (q ChordFingerQuery) appendWire(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, q.Key)
}

func (q *ChordFingerQuery) scanWire(s scanner) scanner {
	q.Key = s.u64()
	return s
}

func (ChordFingerReply) wireKind() Kind { return KindChordFingerOK }

func (r ChordFingerReply) appendWire(dst []byte) []byte {
	dst = r.Next.appendWire(appendBool(dst, r.Done))
	return appendSlice(dst, r.Backups, ChordContact.appendWire)
}

func (r *ChordFingerReply) scanWire(s scanner) scanner {
	r.Done = s.bool()
	s = r.Next.scanWire(s)
	r.Backups = scanSlice(&s, minContact, (*ChordContact).scanWire)
	return s
}

func (ChordLookup) wireKind() Kind { return KindChordLookup }

func (l ChordLookup) appendWire(dst []byte) []byte {
	return appendBool(binary.BigEndian.AppendUint64(dst, l.Key), l.Topo)
}

func (l *ChordLookup) scanWire(s scanner) scanner {
	l.Key = s.u64()
	l.Topo = s.bool()
	return s
}

func (ChordLookupReply) wireKind() Kind { return KindChordLookupOK }

func (r ChordLookupReply) appendWire(dst []byte) []byte {
	return appendInt(r.Owner.appendWire(dst), r.Hops)
}

func (r *ChordLookupReply) scanWire(s scanner) scanner {
	s = r.Owner.scanWire(s)
	r.Hops = s.int()
	return s
}

func (ChordLeave) wireKind() Kind { return KindChordLeave }

func (l ChordLeave) appendWire(dst []byte) []byte {
	dst = l.Peer.appendWire(dst)
	dst = appendOptContact(dst, l.Predecessor)
	dst = appendSlice(dst, l.Successors, ChordContact.appendWire)
	return appendSlice(dst, l.Records, ChordRecord.appendWire)
}

func (l *ChordLeave) scanWire(s scanner) scanner {
	s = l.Peer.scanWire(s)
	l.Predecessor = scanOptContact(&s)
	l.Successors = scanSlice(&s, minContact, (*ChordContact).scanWire)
	l.Records = scanSlice(&s, minRecord, (*ChordRecord).scanWire)
	return s
}

func (ChordReplicate) wireKind() Kind { return KindChordReplicate }

func (r ChordReplicate) appendWire(dst []byte) []byte {
	dst = appendBool(appendBool(dst, r.Replace), r.Withdraw)
	dst = binary.BigEndian.AppendUint64(dst, r.Lo)
	dst = binary.BigEndian.AppendUint64(dst, r.Hi)
	dst = appendSlice(dst, r.Records, ChordRecord.appendWire)
	return appendInt(dst, r.Hops)
}

func (r *ChordReplicate) scanWire(s scanner) scanner {
	r.Replace = s.bool()
	r.Withdraw = s.bool()
	r.Lo = s.u64()
	r.Hi = s.u64()
	r.Records = scanSlice(&s, minRecord, (*ChordRecord).scanWire)
	r.Hops = s.int()
	return s
}

func (ChordReplicaPull) wireKind() Kind { return KindChordReplicaPull }

func (p ChordReplicaPull) appendWire(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.Key)
	dst = appendSlice(dst, p.Dead, strElem)
	dst = appendBool(dst, p.All)
	dst = binary.BigEndian.AppendUint64(dst, p.Lo)
	return binary.BigEndian.AppendUint64(dst, p.Hi)
}

func (p *ChordReplicaPull) scanWire(s scanner) scanner {
	p.Key = s.u64()
	p.Dead = scanSlice(&s, minStr, scanStr)
	p.All = s.bool()
	p.Lo = s.u64()
	p.Hi = s.u64()
	return s
}

func (ChordReplicaPullReply) wireKind() Kind { return KindChordReplicaPullOK }

func (r ChordReplicaPullReply) appendWire(dst []byte) []byte {
	dst = r.Record.appendWire(appendBool(dst, r.Found))
	return appendSlice(dst, r.Records, ChordRecord.appendWire)
}

func (r *ChordReplicaPullReply) scanWire(s scanner) scanner {
	r.Found = s.bool()
	s = r.Record.scanWire(s)
	r.Records = scanSlice(&s, minRecord, (*ChordRecord).scanWire)
	return s
}
