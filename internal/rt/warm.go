package rt

import (
	"facile/internal/memocache"
	"facile/internal/snapshot"
)

// WarmCache is a detached rt action cache: it can seed a fresh machine
// running the same compiled description over the same program and options.
type WarmCache = memocache.Warm[node]

// WarmFormatVersion identifies the serialized node layout. Bump it on any
// change to the node struct's persisted fields.
const WarmFormatVersion = 1

// warmCodec writes a node's block ID and placeholder data; the shared walk
// writes its links.
var warmCodec = memocache.Codec[node]{
	Engine:  "rt",
	Version: WarmFormatVersion,
	Links:   func(n *node) *memocache.Links[node] { return &n.Links },
	Save: func(w *snapshot.Writer, n *node) {
		w.I64(int64(n.blockID))
		w.I64s(n.data)
	},
	Load: func(r *snapshot.Reader, n *node) error {
		n.blockID = int32(r.I64())
		n.data = r.I64s()
		return nil
	},
}

// DetachCache removes and returns the machine's action cache (see
// memocache.Cache.Detach).
func (m *Machine) DetachCache() *WarmCache { return m.ac.Detach(&warmCodec) }

// AdoptCache installs a detached cache into a machine that has not
// stepped yet (see memocache.Cache.Adopt). The caller must guarantee wc was
// built by the same compiled description over the same program and cap.
func (m *Machine) AdoptCache(wc *WarmCache) bool {
	if m.stats.SlowSteps != 0 || m.stats.Replays != 0 {
		return false
	}
	return m.ac.Adopt(wc)
}

// LoadWarmCache reconstructs a detached cache from its serialized form
// (see memocache.LoadWarm).
func LoadWarmCache(r *snapshot.Reader) (*WarmCache, error) {
	return memocache.LoadWarm(r, &warmCodec)
}
