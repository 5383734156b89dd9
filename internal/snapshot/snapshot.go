// Package snapshot implements versioned, deterministic serialization of
// complete simulator state: a byte-exact codec, a stable content hash, and
// a small file format. Every engine in the repository (funcsim, the
// conventional ooo baseline, the hand-coded fastsim, and the Facile rt
// machines) saves and restores itself through this package, so a run can be
// checkpointed, resumed, cloned for parallel interval simulation, and
// verified by hash.
//
// A snapshot payload has two sections:
//
//   - The STATE section holds everything that determines the simulation's
//     future evolution: architectural state, microarchitectural (pipeline,
//     cache, predictor) state, and deterministic PRNG states. Its SHA-256
//     is the snapshot's content hash — two runs that arrive at the same
//     point by different routes (e.g. memoized vs. not) produce the same
//     hash.
//
//   - The accounting (aux) section holds run statistics that are carried
//     across a restore but do not influence evolution and are not hashed:
//     memoization counters, fault counters, self-check tallies. The
//     specialized action cache itself is deliberately excluded from
//     snapshots — it is an acceleration structure, not state, and is
//     re-warmed after a restore.
//
// All multi-byte integers are unsigned varints; slices are length-prefixed.
// Encoders write fields in a fixed documented order, so equal state yields
// equal bytes and therefore equal hashes.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
)

// Writer serializes state into a deterministic byte stream.
type Writer struct {
	buf   []byte
	auxAt int // start of the accounting section; -1 while still in STATE
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{auxAt: -1} }

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

// I64 writes a signed value (two's-complement cast; the reader inverts it).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// U8 writes one raw byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(vs []int64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// BeginAux ends the STATE section: everything written after this call is
// accounting, carried across restores but excluded from the content hash.
func (w *Writer) BeginAux() {
	if w.auxAt < 0 {
		w.auxAt = len(w.buf)
	}
}

// Payload returns the serialized bytes (STATE followed by accounting).
func (w *Writer) Payload() []byte { return w.buf }

// stateLen reports the length of the STATE section.
func (w *Writer) stateLen() int {
	if w.auxAt < 0 {
		return len(w.buf)
	}
	return w.auxAt
}

// StateHash returns the hex SHA-256 of the STATE section — the snapshot's
// stable content hash.
func (w *Writer) StateHash() string {
	sum := sha256.Sum256(w.buf[:w.stateLen()])
	return hex.EncodeToString(sum[:])
}

// Reader deserializes a payload written by Writer. Errors are sticky: after
// the first malformed read every subsequent read returns zero values, and
// Err reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// End returns the first decoding error or, when every read succeeded, an
// error if bytes are left over: a decoder rejects a payload it did not
// consume whole rather than ignore what it could not place.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("snapshot: %d bytes left over after the payload", len(r.buf)-r.off)
	}
	return r.err
}

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: truncated or corrupt payload at offset %d (%s)", r.off, what)
	}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for {
		if r.off >= len(r.buf) || shift > 63 {
			r.fail("uvarint")
			return 0
		}
		b := r.buf[r.off]
		r.off++
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
}

// I64 reads a signed value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// U8 reads one raw byte.
func (r *Reader) U8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a length-prefixed byte slice (always a fresh copy).
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("bytes length")
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s() []int64 {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) { // each element is at least one byte
		r.fail("slice length")
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("slice length")
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}
