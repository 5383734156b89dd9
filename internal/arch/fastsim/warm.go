package fastsim

// Warm-cache sharing: every cache entry is re-derivable by the slow
// simulator, so a cache built by one run of a program is valid for any
// later run of the same program under the same configuration. A job server
// detaches it from a finished simulator and adopts it into a fresh one, or
// persists it (internal/cachestore), amortizing specialization cost across
// jobs instead of only within one run.

import (
	"fmt"

	"facile/internal/isa"
	"facile/internal/memocache"
	"facile/internal/snapshot"
)

// WarmCache is a detached specialized action cache (see memocache.Warm).
type WarmCache = memocache.Warm[action]

// WarmFormatVersion identifies the serialized action layout. Bump it on
// any change to the action struct's persisted fields; a store record
// written by another version fails to adopt instead of replaying garbage.
const WarmFormatVersion = 1

// warmCodec writes an action's fields from kind through in.Raw; the shared
// walk writes its links.
var warmCodec = memocache.Codec[action]{
	Engine:  "fastsim",
	Version: WarmFormatVersion,
	Links:   func(a *action) *memocache.Links[action] { return &a.Links },
	Save: func(w *snapshot.Writer, a *action) {
		w.U8(a.kind)
		w.U8(a.flags)
		w.U8(uint8(a.cls))
		w.U64(uint64(a.slot))
		w.U64(uint64(a.dcyc))
		w.U64(a.pc)
		w.U8(uint8(a.in.Op))
		w.U8(a.in.Rd)
		w.U8(a.in.Rs1)
		w.U8(a.in.Rs2)
		w.I64(a.in.Imm)
		w.Bool(a.in.HasImm)
		w.U64(uint64(a.in.Raw))
	},
	Load: func(r *snapshot.Reader, a *action) error {
		a.kind = r.U8()
		if r.Err() == nil && a.kind > aEnd {
			return fmt.Errorf("fastsim: warm cache action kind %d out of range", a.kind)
		}
		a.flags = r.U8()
		a.cls = isa.Class(r.U8())
		a.slot = uint16(r.U64())
		a.dcyc = uint32(r.U64())
		a.pc = r.U64()
		a.in.Op = isa.Opcode(r.U8())
		a.in.Rd = r.U8()
		a.in.Rs1 = r.U8()
		a.in.Rs2 = r.U8()
		a.in.Imm = r.I64()
		a.in.HasImm = r.Bool()
		a.in.Raw = uint32(r.U64())
		return nil
	},
}

// DetachCache removes and returns the simulator's action cache (see
// memocache.Cache.Detach). Call it at a step boundary — conventionally
// after the run completes.
func (s *Sim) DetachCache() *WarmCache { return s.ac.Detach(&warmCodec) }

// AdoptCache installs a detached cache into a simulator that has not yet
// recorded or replayed anything (see memocache.Cache.Adopt). The caller
// must guarantee wc was built over the same program and engine
// configuration (uarch config, step granularity, cache cap) — entries
// keyed by another program's pipeline states would replay the wrong
// actions.
func (s *Sim) AdoptCache(wc *WarmCache) bool {
	if s.steps != 0 || s.replays != 0 {
		return false
	}
	return s.ac.Adopt(wc)
}

// LoadWarmCache reconstructs a detached cache from its serialized form
// (see memocache.LoadWarm).
func LoadWarmCache(r *snapshot.Reader) (*WarmCache, error) {
	return memocache.LoadWarm(r, &warmCodec)
}
