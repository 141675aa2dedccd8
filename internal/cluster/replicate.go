package cluster

import (
	"errors"
	"sync"
	"time"
)

// Rule is one blocklist rule with its replication metadata: the node that
// originated it, the per-origin sequence number that orders it, the
// blocklist key it denies, and the origination instant.
type Rule struct {
	Origin int
	Seq    uint64
	Key    string
	At     time.Time
}

// Snapshot is one node's published anti-entropy payload: its full
// originated-rule log in sequence order — receivers keep a per-origin
// high-water mark and apply only the delta, so re-reading the full log is
// idempotent — and, when state replication is on, its local engine's
// per-key windows as a windows-only FAS1 frame (signal.Engine.AppendWindows).
type Snapshot struct {
	Node  int
	Rules []Rule
	State []byte
}

// Clone returns a deep copy sharing no memory with the receiver. Every
// Transport clones on Publish, so a node appending to its rule log or
// rewriting its state buffer after publishing can never race a peer
// reading the stored snapshot.
func (s Snapshot) Clone() Snapshot {
	c := Snapshot{Node: s.Node}
	if s.Rules != nil {
		c.Rules = append(make([]Rule, 0, len(s.Rules)), s.Rules...)
	}
	if s.State != nil {
		c.State = append(make([]byte, 0, len(s.State)), s.State...)
	}
	return c
}

// ErrNotPublished reports a fetch of a node that has not published a
// snapshot yet — a replication state, not a transport fault, so the
// anti-entropy loop neither retries it nor counts it as an outage.
var ErrNotPublished = errors.New("cluster: snapshot not published")

// Transport moves snapshots between nodes. Publish replaces the node's
// visible snapshot; Fetch reads the latest one published for a node.
// Implementations must be safe for concurrent use, and Publish must not
// retain the snapshot's buffers: a gossip round writes every node's state
// into one scratch buffer and hands over a prefix of each live rule log,
// so Publish stores a defensive copy (use Snapshot.Clone) and publisher and
// fetchers never share rule-slice or state-byte backing. InProc is the
// in-process implementation; HTTPTransport carries the same snapshots
// over real sockets in the FGS1 wire form.
type Transport interface {
	Publish(snap Snapshot)
	Fetch(node int) (Snapshot, bool)
}

// PeerFetcher is the fallible, directional fetch seam layered over
// Transport. FetchFrom names the fetching node, so a fault plan can cut
// individual directed links (asymmetric partitions), and returns an error
// instead of Fetch's bool so the anti-entropy loop can distinguish an
// unpublished snapshot (ErrNotPublished) from a transport outage worth
// retrying and counting. The cluster prefers this interface when the
// configured Transport implements it.
type PeerFetcher interface {
	FetchFrom(from, to int) (Snapshot, error)
}

// InProc is the in-process Transport: a mutex-guarded map of the latest
// snapshot per node.
type InProc struct {
	mu    sync.Mutex
	snaps map[int]Snapshot
}

// NewInProc returns an empty in-process transport.
func NewInProc() *InProc {
	return &InProc{snaps: make(map[int]Snapshot)}
}

// Publish implements Transport, storing a defensive copy.
func (t *InProc) Publish(snap Snapshot) {
	snap = snap.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snaps[snap.Node] = snap
}

// Fetch implements Transport. The returned snapshot is shared by every
// fetcher and must be treated as read-only.
func (t *InProc) Fetch(node int) (Snapshot, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap, ok := t.snaps[node]
	return snap, ok
}
