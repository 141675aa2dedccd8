package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"funabuse/internal/wire"
)

// snapshotMagic opens every encoded Snapshot: "fleet gossip snapshot",
// format version 1. The payload is varint-packed like the signal.State
// FAS1 form it embeds: node id, then the rule log with every record
// length-prefixed (so a reader can skip records it cannot parse and a
// truncation is always detected at a record boundary), then the raw FAS1
// state bytes behind their own length prefix.
const snapshotMagic = "FGS1"

// maxWireRuleLen bounds one encoded rule record; corrupt gossip cannot
// force a huge allocation through a fabricated length prefix.
const maxWireRuleLen = 1 << 16

var errWireTruncated = errors.New("cluster: truncated snapshot")

// EncodeSnapshot serializes the snapshot into the compact wire form
// DecodeSnapshot reads. Encoding is a pure function of the snapshot's
// logical content — the rule log already carries its canonical per-origin
// sequence order — so byte-identical encodings mean identical snapshots.
func EncodeSnapshot(s Snapshot) []byte {
	b := make([]byte, 0, 256+len(s.State))
	b = append(b, snapshotMagic...)
	b = binary.AppendUvarint(b, uint64(s.Node))
	b = binary.AppendUvarint(b, uint64(len(s.Rules)))
	var rec []byte
	for _, r := range s.Rules {
		rec = rec[:0]
		rec = binary.AppendUvarint(rec, uint64(r.Origin))
		rec = binary.AppendUvarint(rec, r.Seq)
		rec = wire.AppendString(rec, r.Key)
		rec = binary.AppendVarint(rec, r.At.UnixNano())
		b = binary.AppendUvarint(b, uint64(len(rec)))
		b = append(b, rec...)
	}
	b = binary.AppendUvarint(b, uint64(len(s.State)))
	b = append(b, s.State...)
	return b
}

// DecodeSnapshot parses an EncodeSnapshot-produced buffer through the
// shared wire.Reader, sticky-error and bounds-checked throughout: truncated or corrupt gossip
// yields an error, never a panic or an oversized allocation. The embedded
// state bytes are returned raw — receivers validate them separately with
// signal.DecodeRates, so one peer's corrupt state cannot poison the rule
// delta that travelled beside it.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	if len(b) < len(snapshotMagic) || string(b[:len(snapshotMagic)]) != snapshotMagic {
		return Snapshot{}, errors.New("cluster: bad snapshot magic")
	}
	r := wire.NewReader(b, len(snapshotMagic), errWireTruncated)
	var s Snapshot
	s.Node = int(r.Uvarint())
	nRules := r.Count()
	if r.Err != nil {
		return Snapshot{}, r.Err
	}
	if nRules > 0 {
		s.Rules = make([]Rule, 0, nRules)
	}
	for range nRules {
		recLen := r.Count()
		if r.Err != nil {
			return Snapshot{}, r.Err
		}
		if recLen > maxWireRuleLen {
			return Snapshot{}, fmt.Errorf("cluster: rule record of %d bytes exceeds limit", recLen)
		}
		end := r.Off + recLen
		var rule Rule
		rule.Origin = int(r.Uvarint())
		rule.Seq = r.Uvarint()
		rule.Key = r.Str()
		rule.At = time.Unix(0, r.Varint()).UTC()
		if r.Err != nil {
			return Snapshot{}, r.Err
		}
		if r.Off != end {
			return Snapshot{}, fmt.Errorf("cluster: rule record length %d does not match contents", recLen)
		}
		s.Rules = append(s.Rules, rule)
	}
	stateLen := r.Count()
	if r.Err != nil {
		return Snapshot{}, r.Err
	}
	if stateLen > 0 {
		s.State = append([]byte(nil), r.B[r.Off:r.Off+stateLen]...)
		r.Off += stateLen
	}
	if r.Off != len(r.B) {
		return Snapshot{}, fmt.Errorf("cluster: %d trailing bytes after snapshot", r.Left())
	}
	return s, nil
}
