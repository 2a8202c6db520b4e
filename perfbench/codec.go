package main

import (
	"bytes"
	"io"
	"sort"
	"time"

	"p2pstream/internal/transport"
)

// bodyOf returns a fresh typed body for a message kind, or nil for kinds
// whose body carries nothing the receiver decodes.
func bodyOf(kind transport.Kind) any {
	switch kind {
	case transport.KindRegister:
		return new(transport.Register)
	case transport.KindRegisterBatch:
		return new(transport.RegisterBatch)
	case transport.KindUnregister:
		return new(transport.Unregister)
	case transport.KindDirEpochWatch:
		return new(transport.DirEpochWatch)
	case transport.KindDirEpoch:
		return new(transport.DirEpoch)
	case transport.KindLookup:
		return new(transport.Lookup)
	case transport.KindCandidates:
		return new(transport.Candidates)
	case transport.KindProbe:
		return new(transport.Probe)
	case transport.KindProbeReply:
		return new(transport.ProbeReply)
	case transport.KindReminder:
		return new(transport.Reminder)
	case transport.KindReminderOK:
		return new(transport.ReminderReply)
	case transport.KindStart:
		return new(transport.Start)
	case transport.KindStartReply:
		return new(transport.StartReply)
	case transport.KindSegment:
		return new(transport.Segment)
	case transport.KindAck:
		return new(transport.Ack)
	case transport.KindSessionDone:
		return new(transport.SessionDone)
	case transport.KindChordJoin:
		return new(transport.ChordJoin)
	case transport.KindChordJoinOK:
		return new(transport.ChordJoinReply)
	case transport.KindChordNotify:
		return new(transport.ChordNotify)
	case transport.KindChordNotifyOK:
		return new(transport.ChordNotifyReply)
	case transport.KindChordFingerQuery:
		return new(transport.ChordFingerQuery)
	case transport.KindChordFingerOK:
		return new(transport.ChordFingerReply)
	case transport.KindChordLookup:
		return new(transport.ChordLookup)
	case transport.KindChordLookupOK:
		return new(transport.ChordLookupReply)
	case transport.KindChordLeave:
		return new(transport.ChordLeave)
	case transport.KindChordLeaveOK:
		return new(transport.ChordLeaveReply)
	case transport.KindChordReplicate:
		return new(transport.ChordReplicate)
	case transport.KindChordReplicateOK:
		return new(transport.ChordReplicateReply)
	case transport.KindChordReplicaPull:
		return new(transport.ChordReplicaPull)
	case transport.KindChordReplicaPullOK:
		return new(transport.ChordReplicaPullReply)
	case transport.KindError:
		return new(transport.Error)
	}
	return nil
}

// codecCost is one kind's replayed per-frame cost.
type codecCost struct {
	Kind     transport.Kind `json:"kind"`
	Frames   int            `json:"frames"`
	Bytes    float64        `json:"frame_bytes_mean"`
	DecodeNs float64        `json:"decode_ns"`
	EncodeNs float64        `json:"encode_ns"`
}

// replayBudget is the wall time one kind's replay aims to spend per
// direction.
const replayBudget = 20 * time.Millisecond

// replay measures decode and encode cost per frame for every captured
// kind, through transport's public ReadExpect and Write only. Decoding a
// KindError frame surfaces as a RemoteError, which ReadExpect returns by
// contract; any other failure drops the kind from the table.
func replay(samples map[transport.Kind][][]byte) []codecCost {
	var out []codecCost
	for kind, frames := range samples {
		if kind == kindPartial || len(frames) == 0 {
			continue
		}
		decoded := make([]any, len(frames))
		size := 0
		ok := true
		for i, f := range frames {
			size += len(f)
			decoded[i] = bodyOf(kind)
			if err := transport.ReadExpect(bytes.NewReader(f), kind, decoded[i]); err != nil && kind != transport.KindError {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		dec := timePerFrame(len(frames), func(i int) {
			_ = transport.ReadExpect(bytes.NewReader(frames[i]), kind, bodyOf(kind))
		})
		enc := timePerFrame(len(frames), func(i int) {
			_ = transport.Write(io.Discard, kind, decoded[i])
		})
		out = append(out, codecCost{
			Kind: kind, Frames: len(frames), Bytes: float64(size) / float64(len(frames)),
			DecodeNs: dec, EncodeNs: enc,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// timePerFrame runs op over all n frames repeatedly for about
// replayBudget and returns the mean ns per frame.
func timePerFrame(n int, op func(i int)) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i := range n {
			op(i)
		}
		calls += n
	}
	return float64(time.Since(start)) / float64(calls)
}
