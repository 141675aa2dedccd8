package cluster

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// gossipPathPrefix is the snapshot route the transport handler serves:
// GET <prefix><node> returns the node's latest published snapshot in the
// FGS1 wire form, or 404 before the node's first publish.
const gossipPathPrefix = "/gossip/"

// maxSnapshotBytes bounds one fetched snapshot body; a misbehaving peer
// cannot stream an unbounded response into the anti-entropy loop.
const maxSnapshotBytes = 16 << 20

// HTTPTransport carries gossip snapshots over real sockets: each process
// publishes its nodes' snapshots into the transport, serves them on
// Handler, and fetches peers' through an http.Client against the base
// URLs registered with SetPeer. A node with no registered URL is read
// from the local store, so a single-process fleet can route every fetch
// through the loopback listener simply by registering its own URL for
// every node — which is exactly what the partition experiment does to put
// the FGS1 bytes on the wire.
//
// The transport is deliberately dumb: no retries, no caching, no fault
// handling. Resilience lives in the cluster's anti-entropy loop (backoff
// retry and fail-static peer slots) and faults are injected by wrapping
// the transport in a FaultTransport, so the same hardening is exercised
// whatever the bottom layer is.
type HTTPTransport struct {
	client *http.Client

	mu    sync.Mutex
	local map[int]Snapshot
	peers map[int]string
}

// NewHTTPTransport returns a transport fetching through client; nil
// selects a pooled default with a 5-second overall request timeout, which
// is what bounds a fetch from a hung peer.
func NewHTTPTransport(client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{
			Timeout:   5 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		}
	}
	return &HTTPTransport{
		client: client,
		local:  make(map[int]Snapshot),
		peers:  make(map[int]string),
	}
}

// SetPeer registers the base URL (e.g. "http://127.0.0.1:7946") whose
// Handler serves the given node's snapshot. Fetches for unregistered
// nodes read the local store instead of the network.
func (t *HTTPTransport) SetPeer(node int, baseURL string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node] = strings.TrimSuffix(baseURL, "/")
}

// Publish implements Transport, storing a defensive copy in the local
// store the Handler serves from.
func (t *HTTPTransport) Publish(snap Snapshot) {
	snap = snap.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.local[snap.Node] = snap
}

// Fetch implements Transport over FetchFrom, losing the failure detail.
func (t *HTTPTransport) Fetch(node int) (Snapshot, bool) {
	snap, err := t.FetchFrom(-1, node)
	return snap, err == nil
}

// FetchFrom implements PeerFetcher: it resolves the node's registered
// URL, GETs its snapshot route, and decodes the FGS1 body. The fetching
// node's identity is not sent — directionality only matters to fault
// wrappers — and a node with no registered URL is served from the local
// store.
func (t *HTTPTransport) FetchFrom(from, to int) (Snapshot, error) {
	t.mu.Lock()
	base, remote := t.peers[to]
	var snap Snapshot
	var ok bool
	if !remote {
		snap, ok = t.local[to]
	}
	t.mu.Unlock()
	if !remote {
		if !ok {
			return Snapshot{}, ErrNotPublished
		}
		return snap, nil
	}

	resp, err := t.client.Get(base + gossipPathPrefix + strconv.Itoa(to))
	if err != nil {
		return Snapshot{}, fmt.Errorf("cluster: fetch node %d: %w", to, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return Snapshot{}, ErrNotPublished
	default:
		return Snapshot{}, fmt.Errorf("cluster: fetch node %d: status %d", to, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBytes+1))
	if err != nil {
		return Snapshot{}, fmt.Errorf("cluster: fetch node %d: read: %w", to, err)
	}
	if len(body) > maxSnapshotBytes {
		return Snapshot{}, fmt.Errorf("cluster: fetch node %d: snapshot exceeds %d bytes", to, maxSnapshotBytes)
	}
	decoded, err := DecodeSnapshot(body)
	if err != nil {
		return Snapshot{}, fmt.Errorf("cluster: fetch node %d: %w", to, err)
	}
	if decoded.Node != to {
		return Snapshot{}, fmt.Errorf("cluster: fetched node %d but body names node %d", to, decoded.Node)
	}
	return decoded, nil
}

// Handler returns the snapshot-serving side: GET /gossip/<node> responds
// with the node's latest published snapshot encoded in the FGS1 wire
// form, 404 before its first publish.
func (t *HTTPTransport) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		idStr, ok := strings.CutPrefix(r.URL.Path, gossipPathPrefix)
		if !ok {
			http.NotFound(w, r)
			return
		}
		id, err := strconv.Atoi(idStr)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		t.mu.Lock()
		snap, ok := t.local[id]
		t.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(EncodeSnapshot(snap))
	})
}

// Serve starts the transport's Handler on an ephemeral loopback listener
// and returns its base URL plus a closer. It is the one-process
// convenience the experiments and tests use; multi-process deployments
// mount Handler on their own server.
func (t *HTTPTransport) Serve() (url string, closeFn func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("cluster: gossip listen: %w", err)
	}
	srv := &http.Server{Handler: t.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), srv.Close, nil
}
