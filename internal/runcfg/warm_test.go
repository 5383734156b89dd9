package runcfg

import (
	"bytes"
	"fmt"
	"testing"

	"facile/internal/arch/fastsim"
	"facile/internal/rt"
	"facile/internal/snapshot"
	"facile/internal/workloads"
)

// FuzzDecodeWarmCache feeds DecodeWarmCache arbitrary payloads of both
// families. Decoding must never panic, and a payload it accepts must
// re-encode to a fixed point: encode → decode → encode yields the same
// bytes.
func FuzzDecodeWarmCache(f *testing.F) {
	// Real payloads from short memoized runs: whole, truncated, and with
	// junk after the stream.
	for _, eng := range []string{EngineFastsim, EngineFacFunc} {
		p := warmPayload(f, eng)
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(p[:len(p)-1])
		f.Add(withJunk(p))
	}

	// Hand-built streams: a chain and a fork nest 32 nodes deep, and two
	// entries whose bytes wrap past a header of 0.
	for fam, fields := range map[string]func(w *snapshot.Writer){
		warmFamRT: func(w *snapshot.Writer) {
			w.I64(0)    // block
			w.I64s(nil) // placeholders
		},
		warmFamFastsim: func(w *snapshot.Writer) {
			w.U8(0) // kind, flags, class
			w.U8(0)
			w.U8(0)
			w.U64(0) // slot, dcyc, pc
			w.U64(0)
			w.U64(0)
			w.U8(0) // op, rd, rs1, rs2
			w.U8(0)
			w.U8(0)
			w.U8(0)
			w.I64(0)
			w.Bool(false)
			w.U64(0)
		},
	} {
		version := uint64(rt.WarmFormatVersion)
		if fam == warmFamFastsim {
			version = fastsim.WarmFormatVersion
		}
		node := func(w *snapshot.Writer, forks uint64) {
			w.Bool(true)
			fields(w)
			w.String("")
			w.U64(forks)
		}
		stream := func(total uint64, entryBytes []uint64, chain func(w *snapshot.Writer)) []byte {
			w := snapshot.NewWriter()
			w.String(fam)
			w.U64(version)
			w.U64(0) // gen
			w.U64(total)
			w.U64(uint64(len(entryBytes)))
			for i, b := range entryBytes {
				w.String(fmt.Sprint("k", i))
				w.U64(b)
				chain(w)
			}
			return w.Payload()
		}
		const deep = 32
		f.Add(stream(0, []uint64{0}, func(w *snapshot.Writer) {
			for i := 0; i < deep; i++ {
				node(w, 0)
			}
			w.Bool(false)
		}))
		f.Add(stream(0, []uint64{0}, func(w *snapshot.Writer) {
			for i := 0; i < deep; i++ {
				node(w, 1)
				w.U64(uint64(i)) // fork value
			}
			for i := 0; i <= deep; i++ {
				w.Bool(false) // the innermost fork's subtree, then every next
			}
		}))
		f.Add(stream(0, []uint64{1 << 63, 1 << 63}, func(w *snapshot.Writer) {
			node(w, 0)
			w.Bool(false)
		}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		wc, err := DecodeWarmCache(data)
		if err != nil {
			return
		}
		enc, err := EncodeWarmCache(wc)
		if err != nil {
			t.Fatalf("encoding a decoded cache: %v", err)
		}
		back, err := DecodeWarmCache(enc)
		if err != nil {
			t.Fatalf("decoding an encoded cache: %v", err)
		}
		again, err := EncodeWarmCache(back)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encode → decode → encode changed %d bytes into %d", len(enc), len(again))
		}
	})
}

// warmPayload encodes the cache of a short memoized 129.compress run on
// engine. The run is kept short: the fuzzer minimizes every seed that
// finds new coverage, and its time grows with the input's size.
func warmPayload(tb testing.TB, engine string) []byte {
	tb.Helper()
	w, err := workloads.Get("129.compress", 1)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := New(w.Prog, Config{Engine: engine, Memoize: true})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Run(50); err != nil {
		tb.Fatal(err)
	}
	p, err := EncodeWarmCache(r.DetachCache())
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// withJunk returns p with four bytes appended.
func withJunk(p []byte) []byte {
	return append(p[:len(p):len(p)], 0xde, 0xad, 0xbe, 0xef)
}

// A complete warm stream followed by junk is rejected, in both families.
func TestDecodeWarmCacheRejectsTrailingBytes(t *testing.T) {
	for _, eng := range []string{EngineFastsim, EngineFacFunc} {
		p := warmPayload(t, eng)
		if _, err := DecodeWarmCache(p); err != nil {
			t.Fatalf("%s: clean payload: %v", eng, err)
		}
		if _, err := DecodeWarmCache(withJunk(p)); err == nil {
			t.Errorf("%s: payload with junk after the stream decoded", eng)
		}
	}
}

// Every engine's snapshot loader rejects a payload with bytes left over
// after the state it saved, even under a valid FACSNAP1 digest.
func TestLoadRejectsTrailingBytes(t *testing.T) {
	prog := testProg(t)
	for _, eng := range []string{EngineFunc, EngineOOO, EngineFastsim, EngineFacFunc} {
		mk := func() Runner {
			r, err := New(prog, Config{Engine: eng, Memoize: true})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		r := mk()
		if err := r.Run(200); err != nil {
			t.Fatal(err)
		}
		for _, junk := range []bool{false, true} {
			w := snapshot.NewWriter()
			if err := r.Save(w); err != nil {
				t.Fatal(err)
			}
			if junk {
				w.U64(7)
			}
			_, rd, _, err := snapshot.Decode(snapshot.Encode(r.SnapshotKind(), w))
			if err != nil {
				t.Fatal(err)
			}
			err = mk().Load(rd)
			if junk && err == nil {
				t.Errorf("%s: snapshot with a trailing value loaded", eng)
			} else if !junk && err != nil {
				t.Errorf("%s: clean snapshot: %v", eng, err)
			}
		}
	}
}
