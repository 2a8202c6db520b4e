// Package transport defines the wire protocol of the live peer-to-peer
// streaming overlay: length-prefixed binary frames over any stream
// connection (TCP between real peers, net.Pipe in tests).
//
// A frame is a 4-byte big-endian length n, then n bytes: the version byte
// (Version), the kind code (one per Kind, fixed by the kind table in
// codec.go), and the kind's body in the field encoding codec.go
// documents. A reader rejects a frame with a wrong version, an unknown
// kind code, or a body that does not scan exactly to its end.
//
// The message set mirrors the paper's protocol steps: peers register with
// and query a directory (Section 4.2 footnote 4), probe candidate suppliers
// for admission, leave reminders on busy favoring candidates, trigger the
// chosen suppliers with their OTS_p2p segment assignments, and receive the
// media segments of the session.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"p2pstream/internal/bandwidth"
	"p2pstream/internal/dac"
)

// MaxMessageSize bounds a single frame; segments dominate and are small,
// so anything bigger indicates a corrupted or hostile stream.
const MaxMessageSize = 1 << 20

// Version is the frame format version, the first byte after the length
// prefix. A change to the kind table or to any body layout bumps it.
const Version = 1

// Kind discriminates message payloads.
type Kind string

// The protocol message kinds.
const (
	KindRegister     Kind = "register"      // supplier -> directory
	KindRegisterOK   Kind = "register-ok"   // directory -> supplier
	KindLookup       Kind = "lookup"        // requester -> directory
	KindCandidates   Kind = "candidates"    // directory -> requester
	KindProbe        Kind = "probe"         // requester -> supplier
	KindProbeReply   Kind = "probe-reply"   // supplier -> requester
	KindReminder     Kind = "reminder"      // requester -> busy supplier
	KindReminderOK   Kind = "reminder-ok"   // supplier -> requester
	KindStart        Kind = "start"         // requester -> chosen supplier
	KindStartReply   Kind = "start-reply"   // supplier -> requester
	KindSegment      Kind = "segment"       // supplier -> requester
	KindAck          Kind = "ack"           // requester -> supplier (per segment)
	KindSessionDone  Kind = "session-done"  // supplier -> requester
	KindError        Kind = "error"         // any -> any
	KindUnregister   Kind = "unregister"    // supplier -> directory
	KindUnregisterOK Kind = "unregister-ok" // directory -> supplier

	// Batch registration (multi-object seeds): one round announces a
	// peer's whole supplied-object set instead of one dial per object.
	KindRegisterBatch   Kind = "register-batch"    // supplier -> directory
	KindRegisterBatchOK Kind = "register-batch-ok" // directory -> supplier

	// Chord discovery kinds (decentralized lookup, paper Section 4.2
	// footnote 4): ring members maintain successors and fingers and route
	// key lookups over the same wire substrate the sessions use.
	KindChordJoin        Kind = "chord-join"         // joiner -> its successor
	KindChordJoinOK      Kind = "chord-join-ok"      // successor -> joiner
	KindChordNotify      Kind = "chord-notify"       // member -> its successor
	KindChordNotifyOK    Kind = "chord-notify-ok"    // successor -> member
	KindChordFingerQuery Kind = "chord-finger-query" // member -> member (one routing step)
	KindChordFingerOK    Kind = "chord-finger-ok"    // member -> member
	KindChordLookup      Kind = "chord-lookup"       // any peer -> member (full lookup)
	KindChordLookupOK    Kind = "chord-lookup-ok"    // member -> any peer
	KindChordLeave       Kind = "chord-leave"        // departing member -> its neighbors
	KindChordLeaveOK     Kind = "chord-leave-ok"     // neighbor -> departing member

	// Chord replication kinds: registration records spread from each key
	// range's owner to its successor list, so a crashed owner's records
	// stay answerable from replicas (the churn window closes).
	KindChordReplicate     Kind = "chord-replicate"       // owner -> successor (record push)
	KindChordReplicateOK   Kind = "chord-replicate-ok"    // successor -> owner
	KindChordReplicaPull   Kind = "chord-replica-pull"    // any peer -> member (record fetch)
	KindChordReplicaPullOK Kind = "chord-replica-pull-ok" // member -> any peer

	// Resharding epoch kinds (elastic directory): a client subscribes a
	// dedicated connection to epoch announcements, and any directory
	// server pushes "epoch E, shards S" over it whenever the deployment's
	// shard set changes — the immediate reply to the subscription carries
	// the current epoch, and later pushes arrive unsolicited on the same
	// connection.
	KindDirEpochWatch Kind = "dir-epoch-watch" // client -> directory (subscribe)
	KindDirEpoch      Kind = "dir-epoch"       // directory -> client (reply + push)
)

// Register announces a supplying peer to the directory.
type Register struct {
	ID    string
	Addr  string
	Class bandwidth.Class
	// Refresh marks a lease-style re-registration: the directory upserts
	// (address and class replace any existing entry) instead of rejecting
	// the duplicate. Sharded clients re-send registrations periodically so
	// a registry shard that crashed and returned empty is repopulated.
	Refresh bool
	// Object names the media object this registration supplies. Empty
	// selects the directory's default registry (the single-object case).
	Object string
}

// RegisterBatch announces a peer's whole supplied-object set in one
// round: one entry per object, typically sharing ID, Addr and Class.
type RegisterBatch struct {
	Regs []Register
}

// Unregister removes a supplying peer from the directory. A non-empty
// Object withdraws only that object's registration (the cache-eviction
// path); empty withdraws from the default registry.
type Unregister struct {
	ID     string
	Object string
}

// DirEpochWatch subscribes a connection to resharding-epoch
// announcements. The connection carries no further requests: the
// directory answers with the current DirEpoch immediately and pushes a
// fresh one on every flip until the client hangs up.
type DirEpochWatch struct{}

// DirShard identifies one registry shard of an epoch's shard set: the
// stable name whose hash places the shard's arcs on the consistent-hash
// ring, and the address clients dial. Naming shards (rather than hashing
// addresses) keeps key placement identical when a shard moves hosts, and
// keeps rings across epochs comparable point by point.
type DirShard struct {
	Name string
	Addr string
}

// DirEpoch announces one resharding epoch: a monotonically increasing
// epoch number and the complete shard set it is valid for. Clients adopt
// the highest epoch they have seen and ignore stale ones.
type DirEpoch struct {
	Epoch  int64
	Shards []DirShard
}

// Lookup asks the directory for M random candidate suppliers.
type Lookup struct {
	M int
	// Exclude names a peer to omit (a requester never probes itself).
	Exclude string
	// Object restricts the sample to suppliers of that media object;
	// empty samples the default registry.
	Object string
}

// Candidate describes one supplier returned by a lookup.
type Candidate struct {
	ID    string
	Addr  string
	Class bandwidth.Class
}

// Candidates is the lookup response.
type Candidates struct {
	Peers []Candidate
	// Len is the answering registry's total supplier count — with a
	// sharded directory, the weight a client's merge gives this shard's
	// sample so the merged result stays exactly uniform over the union.
	Len int
}

// Probe asks a supplier for streaming-service permission. Object routes
// the probe to the supplier's per-object admission state; empty means
// the supplier's default (single) object.
type Probe struct {
	RequesterID string
	Class       bandwidth.Class
	Object      string
}

// ProbeReply is the supplier's admission decision.
type ProbeReply struct {
	Decision dac.Decision
	// Favors reports whether the supplier currently favors the requester's
	// class (used for reminder targeting when Decision is DeniedBusy).
	Favors bool
}

// Reminder is left on a busy supplier by a rejected requester.
type Reminder struct {
	RequesterID string
	Class       bandwidth.Class
	Object      string
}

// ReminderReply acknowledges a reminder.
type ReminderReply struct {
	Kept bool
}

// Start triggers a chosen supplier with its OTS_p2p assignment: the
// absolute segment IDs it must transmit, in ascending order.
type Start struct {
	RequesterID string
	FileName    string
	Segments    []int
	// Priority orders competing sessions at a shared bottleneck: higher
	// values downgrade later (larger sustain window before the ABR ladder
	// steps down), lower values yield earlier. Zero is the default
	// priority.
	Priority int
}

// StartReply confirms (or refuses) session participation.
type StartReply struct {
	OK     bool
	Reason string
}

// Segment carries one media segment.
type Segment struct {
	ID int
	// Quality is the bitrate-class the payload was encoded at: 0 is full
	// quality, each step halves the encoded size (the paper's dyadic
	// ladder applied to the media itself).
	Quality int
	Data    []byte
}

// Ack confirms receipt of one media segment back to its supplier — the
// feedback the send-side bandwidth estimator runs on. Seq echoes the
// segment ID; Bytes is the payload size received.
type Ack struct {
	Seq   int
	Bytes int
}

// SessionDone marks the end of a supplier's transmissions.
type SessionDone struct {
	Sent int
}

// ChordContact identifies one member of the wire-level Chord ring: its
// overlay name (whose hash is its ring position), its chord endpoint for
// ring RPCs, its overlay endpoint for probes and sessions, and its
// bandwidth class (so key lookups double as candidate discovery).
type ChordContact struct {
	Name     string
	Addr     string
	NodeAddr string
	Class    bandwidth.Class
	// Objects lists the media objects the member supplies, sorted. Empty
	// means the set is unknown (a pre-multi-object member, or one that
	// registered without naming an object): candidate filters must keep
	// such contacts and let the probe's own refusal sort them out.
	// Propagated with the contact through join/notify/lookup replies, so
	// cached copies can lag a peer's latest set by a stabilization round.
	Objects []string
	// Epoch orders contacts for the same name across rejoins: a member
	// that leaves and rejoins (possibly on a new address) stamps a higher
	// epoch, so merges prefer the newest contact and probes never dial an
	// address the member already abandoned. Zero on contacts from members
	// predating epochs; any stamped contact beats an unstamped one.
	Epoch int64
}

// ChordJoin is sent by a joining peer to the ring member it determined to
// be its successor (via a key lookup of its own ring position).
type ChordJoin struct {
	Peer ChordContact
}

// ChordJoinReply transfers the successor's state to the joiner: the
// predecessor it knew before (possibly) adopting the joiner, and its
// successor list (the joiner's fault-tolerance seed).
type ChordJoinReply struct {
	Predecessor *ChordContact
	Successors  []ChordContact
}

// ChordNotify is the stabilization heartbeat a member sends its successor:
// "I believe I am your predecessor".
type ChordNotify struct {
	Peer ChordContact
}

// ChordNotifyReply returns the receiver's predecessor as of before this
// notify (the sender adopts it as a closer successor if it lies between
// them), the receiver's successor list, and the receiver's own fresh
// contact — the sender replaces its stored successor entry with it, so a
// contact change after join (a grown supplied-object set, above all)
// spreads to the peers whose routing answers carry it within one
// stabilization round instead of never.
type ChordNotifyReply struct {
	Predecessor *ChordContact
	Successors  []ChordContact
	Self        *ChordContact
}

// ChordFingerQuery asks a member for one iterative routing step toward a
// key.
type ChordFingerQuery struct {
	Key uint64
}

// ChordFingerReply answers a routing step: when Done, Next is the key's
// owner (the receiver's successor); otherwise Next is the receiver's
// closest finger preceding the key, and the querier continues from there.
// Backups, on a Done reply, lists the owner's own successors as the
// receiver knows them — the replica holders of the owner's key range, in
// fail-over order, so a resolver whose pull finds the owner dead asks
// them directly instead of re-walking into the same corpse.
type ChordFingerReply struct {
	Done    bool
	Next    ChordContact
	Backups []ChordContact
}

// ChordLookup asks a ring member to route a full key lookup on the
// caller's behalf — the entry point for peers that are not (yet) members,
// such as requesting peers sampling candidates before their first session.
type ChordLookup struct {
	Key uint64
	// Topo asks for the key's topological owner (the ring member whose
	// arc covers the key) rather than a registration-record answer; the
	// join path uses it to find a successor, since a joiner needs the
	// member at that position, not whoever registered a record near it.
	Topo bool
}

// ChordLookupReply returns the key's owner and the routing hops expended.
type ChordLookupReply struct {
	Owner ChordContact
	Hops  int
}

// ChordLeave is the graceful-departure notice a leaving member sends both
// ring neighbors, handing its key range to its successor: the successor
// adopts the leaver's predecessor (closing the ownership gap instantly,
// with no stabilization round in between), and the predecessor splices the
// leaver's successor list in place of the leaver.
type ChordLeave struct {
	Peer ChordContact
	// Predecessor is the leaver's predecessor, for the successor to adopt.
	Predecessor *ChordContact
	// Successors is the leaver's successor list, for the predecessor to
	// splice in.
	Successors []ChordContact
	// Records are the registration records the leaver stored as primary
	// owner; the successor inherits the leaver's key range, so it adopts
	// them (minus any naming the leaver itself).
	Records []ChordRecord
}

// ChordLeaveReply acknowledges a leave notice.
type ChordLeaveReply struct{}

// ChordRecord is one replicated registration record: a virtual position on
// the identifier circle and the contact of the member that claimed it.
// A member registering with V virtual nodes publishes V such records; the
// record at the member's own ring position doubles as its liveness anchor.
type ChordRecord struct {
	Pos  uint64
	Peer ChordContact
}

// ChordReplicate pushes registration records to a peer. With Replace set,
// the receiver mirrors the sender's authoritative view of the circular
// range (Lo, Hi]: it stores the pushed records and drops any other record
// in that range (except records naming the receiver itself — a peer's own
// registration is never deleted on hearsay). Without Replace, the records
// are upserted individually (the registration path), and a receiver that
// does not own a record's position forwards it toward the true owner;
// Hops bounds that forwarding against routing flux.
// With Withdraw set, the receiver instead deletes its copies of the
// pushed records (matched by position and registrant name, epoch-gated
// so a rejoined member's fresher record survives a late withdrawal of
// the old incarnation).
type ChordReplicate struct {
	Replace  bool
	Withdraw bool
	Lo       uint64
	Hi       uint64
	Records  []ChordRecord
	Hops     int
}

// ChordReplicateReply acknowledges a record push.
type ChordReplicateReply struct{}

// ChordReplicaPull fetches registration records from a member. With Key
// set (All false) it asks for the best record answering that key — the
// lookup path, served by owners and replicas alike. Dead lists member
// names the puller found unreachable this resolve; the answerer skips
// their records (without deleting them — the puller's evidence is not
// the answerer's). With All set it asks for every record in the circular
// range (Lo, Hi] — the join path, syncing a joiner's inherited range.
type ChordReplicaPull struct {
	Key  uint64
	Dead []string
	All  bool
	Lo   uint64
	Hi   uint64
}

// ChordReplicaPullReply answers a record fetch: Found/Record for a keyed
// pull, Records for a range pull.
type ChordReplicaPullReply struct {
	Found   bool
	Record  ChordRecord
	Records []ChordRecord
}

// Error reports a protocol failure.
type Error struct {
	Message string
}

// RemoteError is what ReadExpect returns when the peer answered with a
// KindError frame: an application-level refusal carried over a healthy,
// still-synchronized connection. Persistent-connection clients keep the
// connection on a RemoteError and drop it on anything else.
type RemoteError struct {
	Message string
}

func (e *RemoteError) Error() string { return "transport: remote error: " + e.Message }

// Envelope is one received frame: its kind and its still-encoded body.
type Envelope struct {
	Kind Kind
	Body []byte
}

// Decode decodes the envelope's body into out, a pointer to the kind's
// body type (or nil, or *struct{} for a bodiless kind).
func (e *Envelope) Decode(out any) error {
	if out == nil {
		return nil
	}
	return decodeBody(e.Kind, e.Body, out)
}

// String renders the envelope for logs and test failures: the kind and
// the decoded body, or the raw body bytes when they do not decode.
func (e *Envelope) String() string {
	code := kindCodes[e.Kind]
	if code == 0 || kindTable[code-1].newBody == nil {
		if len(e.Body) == 0 {
			return string(e.Kind)
		}
		return fmt.Sprintf("%s % x", e.Kind, e.Body)
	}
	body := kindTable[code-1].newBody()
	if err := decodeBody(e.Kind, e.Body, body); err != nil {
		return fmt.Sprintf("%s % x (%v)", e.Kind, e.Body, err)
	}
	return fmt.Sprintf("%s %+v", e.Kind, body)
}

// ErrMessageTooLarge is returned for frames beyond MaxMessageSize.
var ErrMessageTooLarge = errors.New("transport: message exceeds size limit")

// maxPooledFrame caps the capacity a frame or read buffer may carry back
// into its pool, so one outsized message does not pin memory forever.
const maxPooledFrame = 64 << 10

// framePool recycles whole outgoing frames; readPool recycles incoming
// ones. Both are safe to reuse the moment the call returns: io.Writer
// must not retain its argument, and Read copies the body it keeps.
var (
	framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}
	readPool  = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}
)

// Write frames and sends one message. body is a value of, or pointer to,
// the kind's body type; bodiless kinds take nil or struct{}{}. The frame
// is assembled in a pooled buffer and handed to w in a single Write call.
func Write(w io.Writer, kind Kind, body any) error {
	code := kindCodes[kind]
	if code == 0 {
		return fmt.Errorf("%w: %q", ErrUnknownKind, kind)
	}
	bp := framePool.Get().(*[]byte)
	frame, err := appendBody(append((*bp)[:0], 0, 0, 0, 0, Version, code), kind, body)
	if err == nil && len(frame)-4 > MaxMessageSize {
		err = ErrMessageTooLarge
	}
	if err == nil {
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		if _, werr := w.Write(frame); werr != nil {
			err = fmt.Errorf("transport: writing %s: %w", kind, werr)
		}
	}
	if cap(frame) <= maxPooledFrame {
		*bp = frame[:0]
		framePool.Put(bp)
	}
	return err
}

// WriteReply writes one response frame, counting a failure in fails and
// feeding it to onErr when non-nil. A hangup mid-reply looks like
// success to the request/response flow, so it must at least be
// observable; the directory server, node and chord peer all reply
// through this helper.
func WriteReply(w io.Writer, kind Kind, body any, fails *atomic.Int64, onErr func(Kind, error)) error {
	err := Write(w, kind, body)
	if err != nil {
		fails.Add(1)
		if onErr != nil {
			onErr(kind, err)
		}
	}
	return err
}

// readFrame reads one frame into a pooled buffer and returns its kind and
// body. The body aliases the buffer, valid until putRead(bp, frame). The
// buffer is taken from the pool only once the length prefix has arrived:
// servers park a reader on every idle connection, and a parked reader
// must not pin a frame buffer.
func readFrame(r io.Reader) (bp *[]byte, frame []byte, kind Kind, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil, "", nil, io.EOF
		}
		return nil, nil, "", nil, fmt.Errorf("transport: reading length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > MaxMessageSize {
		return nil, nil, "", nil, ErrMessageTooLarge
	}
	bp = readPool.Get().(*[]byte)
	if cap(*bp) >= int(n) {
		frame = (*bp)[:n]
	} else {
		frame = make([]byte, n)
	}
	if _, err := io.ReadFull(r, frame); err != nil {
		putRead(bp, frame)
		return nil, nil, "", nil, fmt.Errorf("transport: reading body: %w", err)
	}
	kind, err = parseHeader(frame)
	if err != nil {
		putRead(bp, frame)
		return nil, nil, "", nil, err
	}
	return bp, frame, kind, frame[2:], nil
}

// parseHeader checks a frame's version byte and kind code.
func parseHeader(frame []byte) (Kind, error) {
	if len(frame) < 2 {
		return "", fmt.Errorf("%w: %d-byte frame has no kind code", ErrMalformed, len(frame))
	}
	if frame[0] != Version {
		return "", fmt.Errorf("%w: got %d, want %d", ErrVersion, frame[0], Version)
	}
	code := frame[1]
	if code == 0 || int(code) > len(kindTable) {
		return "", fmt.Errorf("%w: code %d", ErrUnknownKind, code)
	}
	return kindTable[code-1].kind, nil
}

// putRead returns a read buffer (possibly regrown to frame) to readPool.
func putRead(bp *[]byte, frame []byte) {
	if cap(frame) <= maxPooledFrame {
		*bp = frame[:0]
		readPool.Put(bp)
	}
}

// Read receives one framed message envelope. The body is not decoded
// until Envelope.Decode.
func Read(r io.Reader) (*Envelope, error) {
	bp, frame, kind, body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	env := &Envelope{Kind: kind}
	if len(body) > 0 {
		// The envelope outlives the pooled buffer.
		env.Body = append([]byte(nil), body...)
	}
	putRead(bp, frame)
	return env, nil
}

// ReadExpect receives one message and requires it to be of the given kind,
// decoding its body into out (nil skips the body). A received KindError
// is surfaced as a *RemoteError. The body is decoded straight out of the
// pooled frame buffer, with no intermediate envelope copy.
func ReadExpect(r io.Reader, kind Kind, out any) error {
	bp, frame, got, body, err := readFrame(r)
	if err != nil {
		return err
	}
	defer putRead(bp, frame)
	if got == KindError {
		var e Error
		if err := decodeBody(KindError, body, &e); err != nil {
			return fmt.Errorf("transport: malformed error message: %w", err)
		}
		return &RemoteError{Message: e.Message}
	}
	if got != kind {
		return fmt.Errorf("transport: got %s, want %s", got, kind)
	}
	if out == nil {
		return nil
	}
	return decodeBody(kind, body, out)
}
