package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"lattecc/internal/harness"
	"lattecc/internal/resultstore"
	"lattecc/internal/sim"
)

// maxPeerEntryBytes bounds a single entry fetched from a peer; anything
// larger is discarded unread. Real entries are a few KB (a serialized
// sim.Result), so this is purely a misbehaving-peer guard.
const maxPeerEntryBytes = 64 << 20

// tieredStore is the harness.Store the daemon installs on its resident
// suites: local disk first, then the cluster's cache-peer protocol. A
// result computed by any worker serves every worker — on a local miss
// each peer's GET /v1/results/{key} is tried in turn, and a fetched
// entry is validated (decode + checksum + StateHash + key match, the
// same fail-closed contract as a disk read) and written through to the
// local disk tier before being returned, so the next restart serves it
// locally.
type tieredStore struct {
	disk   *resultstore.Store
	peers  func() []string // nil = clusterless; consulted per miss, never cached
	client *http.Client

	peerHits   atomic.Uint64 // misses rescued by a peer entry
	peerMisses atomic.Uint64 // misses no peer could serve
}

func newTieredStore(disk *resultstore.Store, peers func() []string) *tieredStore {
	return &tieredStore{
		disk:   disk,
		peers:  peers,
		client: &http.Client{Timeout: 5 * time.Second},
	}
}

// Load implements harness.Store.
func (t *tieredStore) Load(k harness.StoreKey) (sim.Result, bool) {
	if res, ok := t.disk.Load(k); ok {
		return res, true
	}
	if t.peers == nil {
		return sim.Result{}, false
	}
	keyx := resultstore.KeyHex(k)
	for _, base := range t.peers() {
		raw, ok := t.fetch(base, keyx)
		if !ok {
			continue
		}
		// PutRaw validates the peer's bytes exactly as a disk read would;
		// a corrupt or mismatched entry bumps the store's corrupt counter
		// and the next peer is tried.
		if err := t.disk.PutRaw(k, raw); err != nil {
			continue
		}
		res, ok := t.disk.Load(k)
		if !ok {
			continue
		}
		t.peerHits.Add(1)
		return res, true
	}
	t.peerMisses.Add(1)
	return sim.Result{}, false
}

// Save implements harness.Store: fresh results land on the local disk
// tier only — peers pull on demand, nothing is pushed.
func (t *tieredStore) Save(k harness.StoreKey, res sim.Result) { t.disk.Save(k, res) }

// fetch retrieves one raw entry from a peer, tolerating every failure
// (dead peer, 404, oversized body) as a simple miss.
func (t *tieredStore) fetch(base, keyx string) ([]byte, bool) {
	resp, err := t.client.Get(base + "/v1/results/" + keyx)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerEntryBytes+1))
	if err != nil || len(raw) > maxPeerEntryBytes {
		return nil, false
	}
	return raw, true
}

// handleResult is the serving side of the cache-peer protocol: raw,
// unparsed entry bytes by hex key, 404 on any miss. Peers validate what
// they receive, so this endpoint never needs to decode.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		WriteJSONError(w, http.StatusNotFound, "no result store configured")
		return
	}
	raw, ok := s.store.disk.GetRaw(r.PathValue("key"))
	if !ok {
		WriteJSONError(w, http.StatusNotFound, "no such entry")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(raw)
}

// RouterPeers returns a registry-driven peer source for the cache-peer
// protocol: each call lists the base URLs of every worker currently
// registered with the router (GET /v1/workers), excluding this worker's
// own advertise URL. Draining workers are included — a worker that no
// longer accepts jobs still serves its store. Lookup failures yield an
// empty list: the cluster tier silently degrades to disk-only.
func RouterPeers(router, self string) func() []string {
	client := &http.Client{Timeout: 5 * time.Second}
	return func() []string {
		resp, err := client.Get(router + "/v1/workers")
		if err != nil {
			return nil
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil
		}
		var body struct {
			Workers []struct {
				URL string `json:"url"`
			} `json:"workers"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
			return nil
		}
		peers := make([]string, 0, len(body.Workers))
		for _, w := range body.Workers {
			if w.URL != "" && w.URL != self {
				peers = append(peers, w.URL)
			}
		}
		return peers
	}
}
