// Package memocache is the specialized action cache both memoizing
// engines share (internal/arch/fastsim and internal/rt), generic over the
// engine's node type. It owns:
//
//   - the cache: entries keyed by run-time static state, fork links on
//     dynamic results, the link from a step's end to the next entry, and
//     byte accounting with clear-when-full (Cache, Links, Gauge);
//   - warm hand-over: a finished run's cache in memory (Detach, Adopt) and
//     its serialized form (Save, LoadWarm);
//   - the fault layer (Guard): the fault log and counters, the injection
//     and self-check sampling policies the engines' Run loops apply at each
//     step boundary (Lookup), the corrupter injection drives (Corrupt), and
//     the verify walk of a self-checked step (Verify).
//
// Each engine keeps its node payload, recorders, replay executors and
// recovery, and describes its nodes to the package: a field codec for the
// warm stream (Codec) and, for the fault layer, a field comparison and the
// two corruption hooks where payloads differ (Payload).
package memocache

// Gauge tracks a cache's byte occupancy against an optional cap and
// implements the paper's clear-when-full policy (§6.1: "fixing a maximum
// cache size and clearing the cache when it fills"). Occupancy is checked
// *after* charging an installed entry, so the cache clears on the put that
// overflows it rather than one put later.
//
// Gen is the staleness generation: a replay that cached a direct link to an
// entry re-validates the link whenever Gen has moved. Both clears and fault
// invalidations bump Gen, so a discarded entry can never be re-entered
// through a stale link.
type Gauge struct {
	Bytes    uint64 // current occupancy (accounting model)
	CapBytes uint64 // 0 = unlimited
	Gen      uint64

	TotalBytes    uint64 // monotonic: everything ever memoized (Table 2)
	Clears        uint64
	Invalidations uint64 // entries discarded by fault recovery
}

// Charge adds n bytes to the occupancy and the monotonic total.
func (g *Gauge) Charge(n uint64) {
	g.Bytes += n
	g.TotalBytes += n
}

// Over reports whether the occupancy exceeds the cap (if any). Callers
// check it after charging a newly installed entry.
func (g *Gauge) Over() bool {
	return g.CapBytes > 0 && g.Bytes > g.CapBytes
}

// Cleared records a whole-cache clear: occupancy resets and the generation
// moves so in-flight replays drop their cached links.
func (g *Gauge) Cleared() {
	g.Bytes = 0
	g.Gen++
	g.Clears++
}

// Refund removes n bytes from the occupancy (the monotonic total is
// unaffected). Clamped so stale refunds after a clear cannot underflow.
func (g *Gauge) Refund(n uint64) {
	if n > g.Bytes {
		n = g.Bytes
	}
	g.Bytes -= n
}

// Invalidated records a single-entry fault invalidation: the dead entry's
// bytes are refunded from the occupancy and the generation moves so cached
// links to the entry are re-validated and miss. Callers pass 0 when the
// entry was no longer charged (e.g. a clear already reset the gauge).
func (g *Gauge) Invalidated(entryBytes uint64) {
	g.Refund(entryBytes)
	g.Gen++
	g.Invalidations++
}
