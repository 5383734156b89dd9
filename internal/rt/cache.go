package rt

import (
	"encoding/binary"
	"slices"

	"facile/internal/memocache"
)

// node is one action in the specialized action cache: an executed dynamic
// basic block, identified by its action number (the block ID), plus the
// run-time static placeholder data its dynamic instructions consume.
// Dynamic-result nodes (dynamic branches and dynamic next-step arguments)
// fork by observed value; end-of-step nodes carry the link to the next
// cache entry (the paper's INDEX action). The links live in the embedded
// memocache.Links.
type node struct {
	blockID int32
	// keyVer (end-of-step nodes only) marks NextKey as vetted (validKey
	// passed) while it equals the owning entry's KeyMark; zero means never
	// vetted. Fault injection and invalidation bump the entry's CVer, and a
	// warm load builds fresh nodes, so every path that brings untrusted
	// bytes in forces a re-vet. It sits in blockID's padding, so the mark
	// costs no memory.
	keyVer uint32
	data   []int64 // placeholder values, in dynamic-segment order
	memocache.Links[node]

	// Derived replay state (see compile.go): the fused run headed by this
	// node, valid only while fusedVer equals the owning entry's CVer.
	// Never serialized — snapshot and the warm codec enumerate fields
	// explicitly — and rebuilt lazily after warm adoption.
	fused    *fusedRun
	fusedVer uint64
}

// payload describes nodes to the fault layer: a block ID and placeholder
// data, which fault injection may truncate.
var payload = memocache.Payload[node]{
	Engine: "rt",
	Links:  func(n *node) *memocache.Links[node] { return &n.Links },
	Same: func(a, b *node) bool {
		return a.blockID == b.blockID && slices.Equal(a.data, b.data)
	},
	TruncData: func(n *node) bool {
		if len(n.data) == 0 {
			return false
		}
		n.data = n.data[:len(n.data)/2]
		return true
	},
}

// Byte-accounting model for the cache-size cap and the Table 2 metric; the
// entry and fork costs are memocache's.
const (
	nodeBytes = 72
	valBytes  = 8
)

// buildKey serializes the run-time static inputs of main — the integer
// arguments and the contents of every queue parameter — into the action
// cache key. The encoding is invertible: miss recovery restores main's
// arguments from the key (paper §2.1: "reads its static input from the
// cache entry's index key").
func buildKey(argI []int64, argQ []*Queue) string {
	n := 0
	for range argI {
		n += binary.MaxVarintLen64
	}
	for _, q := range argQ {
		n += binary.MaxVarintLen64 * (1 + len(q.data))
	}
	buf := make([]byte, n)
	off := 0
	for _, v := range argI {
		off += binary.PutVarint(buf[off:], v)
	}
	for _, q := range argQ {
		off += binary.PutUvarint(buf[off:], uint64(q.Size()))
		for _, v := range q.data {
			off += binary.PutVarint(buf[off:], v)
		}
	}
	return string(buf[:off])
}

// validKey reports whether key would parse as main's run-time static
// arguments, without mutating anything. The fast simulator uses it to
// vet a recorded successor key before adopting it — a corrupt key caught
// here is recoverable; one caught after adoption is not. Replay runs it
// once per owning entry version (node.keyVer), not once per step.
func validKey(key string, nArgI int, argQ []*Queue) bool {
	off := 0
	for i := 0; i < nArgI; i++ {
		_, k := varintAt(key, off)
		if k <= 0 {
			return false
		}
		off += k
	}
	for _, q := range argQ {
		sz, k := uvarintAt(key, off)
		if k <= 0 || sz > uint64(q.Cap()) {
			return false
		}
		off += k
		for j := 0; j < int(sz)*q.Width(); j++ {
			_, k := varintAt(key, off)
			if k <= 0 {
				return false
			}
			off += k
		}
	}
	return off == len(key)
}

// parseKey restores main's arguments from a cache key.
func parseKey(key string, argI []int64, argQ []*Queue) bool {
	off := 0
	for i := range argI {
		v, k := varintAt(key, off)
		if k <= 0 {
			return false
		}
		argI[i] = v
		off += k
	}
	for _, q := range argQ {
		sz, k := uvarintAt(key, off)
		if k <= 0 || sz > uint64(q.Cap()) {
			return false
		}
		off += k
		q.data = q.data[:0]
		for j := 0; j < int(sz)*q.Width(); j++ {
			v, k := varintAt(key, off)
			if k <= 0 {
				return false
			}
			q.data = append(q.data, v)
			off += k
		}
	}
	return off == len(key)
}

// uvarintAt decodes the unsigned varint at key[off:] in place, with
// binary.Uvarint's results: the value and the bytes read, 0 bytes for a
// short buffer, negative for an overflow.
func uvarintAt(key string, off int) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; off+i < len(key); i++ {
		if i == binary.MaxVarintLen64 {
			return 0, -(i + 1)
		}
		b := key[off+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1)
			}
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0
}

// varintAt is uvarintAt for the zig-zag signed encoding of binary.Varint.
func varintAt(key string, off int) (int64, int) {
	ux, k := uvarintAt(key, off)
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, k
}
