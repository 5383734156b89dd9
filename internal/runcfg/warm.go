package runcfg

// Warm-cache persistence glue: the serve layer deals in the opaque
// WarmCache interface, the cache store deals in bytes. These helpers
// bridge the two, dispatching on the concrete engine family, and supply
// the lineage fingerprint that invalidates persisted caches when the
// simulator they were built by changes.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"facile/internal/arch/fastsim"
	"facile/internal/arch/uarch"
	"facile/internal/facsim"
	"facile/internal/rt"
	"facile/internal/snapshot"
)

// Warm-cache payload family tags.
const (
	warmFamFastsim = "fastsim"
	warmFamRT      = "rt"
)

// EncodeWarmCache serializes a detached cache into a self-describing
// payload (family tag + engine-specific stream). The walk is read-only:
// the cache stays parked and adoptable afterwards.
func EncodeWarmCache(wc WarmCache) ([]byte, error) {
	w := snapshot.NewWriter()
	switch c := wc.(type) {
	case *fastsim.WarmCache:
		w.String(warmFamFastsim)
		c.Save(w)
	case *rt.WarmCache:
		w.String(warmFamRT)
		c.Save(w)
	default:
		return nil, fmt.Errorf("runcfg: cannot persist warm cache of type %T", wc)
	}
	return w.Payload(), nil
}

// DecodeWarmCache reconstructs a detached cache from EncodeWarmCache's
// payload. Errors mean the payload is not adoptable (unknown family,
// format skew, structural corruption, bytes left over after the stream);
// callers degrade to a cold start.
func DecodeWarmCache(payload []byte) (WarmCache, error) {
	r := snapshot.NewReader(payload)
	fam := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var wc WarmCache
	var err error
	switch fam {
	case warmFamFastsim:
		wc, err = fastsim.LoadWarmCache(r)
	case warmFamRT:
		wc, err = rt.LoadWarmCache(r)
	default:
		return nil, fmt.Errorf("runcfg: unknown warm-cache family %q", fam)
	}
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, err
	}
	return wc, nil
}

// CacheFingerprint identifies the simulator an engine name resolves to,
// for persisted-cache invalidation: a stored record whose fingerprint
// differs from the current build's was built by a different simulator
// (edited Facile description, changed µarch defaults, bumped cache
// layout) and must not be adopted. Engines that build no shareable cache
// fingerprint to "".
func CacheFingerprint(engine string) string {
	switch engine {
	case EngineFastsim:
		h := sha256.Sum256([]byte(fmt.Sprintf("fastsim|warm-format=%d|uarch=%+v",
			fastsim.WarmFormatVersion, uarch.Default())))
		return hex.EncodeToString(h[:])[:16]
	case EngineFacFunc, EngineFacInOrder, EngineFacOOO:
		fp, _ := facsim.DescriptionFingerprint(engine)
		return fp
	}
	return ""
}
