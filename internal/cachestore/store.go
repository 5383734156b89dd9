// Package cachestore is the crash-safe, content-addressed on-disk store
// for detached action caches: the durability substrate that lets a job
// server's memoization warmth survive restarts and crashes instead of
// dying with the process.
//
// One record per cache lineage key. Every record is written via the
// temp-file + fsync + rename discipline (internal/snapshot.WriteRawFile)
// and framed with a magic/version header, a metadata section, the
// length-prefixed payload, and a CRC32-C trailer over everything before
// it. Loads verify end to end; any failure — truncation, bit rot, version
// skew, a foreign file — quarantines the record under quarantine/ and
// reports a typed *CorruptError, so the caller degrades to a cold run and
// an operator can autopsy the evidence. The store never returns bytes it
// could not verify.
//
// The degradation ladder, top to bottom:
//
//	verified-warm   record present, CRC and fingerprint check out → warm start
//	cold+quarantine record corrupt → quarantined, cold start, counters moved
//	cold+disabled   the directory itself unusable (or saves persistently
//	                failing) → persistence disabled, simulation unaffected
//
// Every transition is a counted obs event: cachestore.hits, .misses,
// .corrupt, .quarantined, .evicted_bytes, .saves, .save_errors, plus
// load/save latency histograms.
package cachestore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"facile/internal/faults"
	"facile/internal/obs"
	"facile/internal/snapshot"
)

// Record layout:
//
//	magic   [8]byte "FACSTOR1"
//	body    snapshot varint stream:
//	          version     uvarint (Version)
//	          key         string  lineage key (also the file name)
//	          engine      string  runcfg engine name
//	          fingerprint string  lineage fingerprint (program+engine identity)
//	          entries     uvarint cache entries in the payload
//	          cacheBytes  uvarint accounting bytes of the cached entries
//	          savedAt     uvarint unix nanoseconds
//	          payload     bytes   serialized warm cache (engine-specific)
//	trailer [4]byte CRC32-C (Castagnoli) of magic+body, little-endian

const magic = "FACSTOR1"

// Version is the store record format version. Bump on any layout change;
// Load rejects (and quarantines) records from other versions rather than
// guessing.
const Version = 1

// recordExt is the record file extension; <key>.wc under the store dir.
const recordExt = ".wc"

// QuarantineDir is the subdirectory corrupt records are moved to.
const QuarantineDir = "quarantine"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNotFound reports a key with no stored record.
var ErrNotFound = errors.New("cachestore: no record for key")

// ErrDisabled reports an operation against a disabled store.
var ErrDisabled = errors.New("cachestore: store disabled")

// CorruptError reports a record that failed verification and was
// quarantined (or removed, when quarantining itself failed).
type CorruptError struct {
	Path        string // original record path
	Reason      string // what failed to verify
	Quarantined string // where the evidence went ("" if removal fell back)
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("cachestore: corrupt record %s: %s", filepath.Base(e.Path), e.Reason)
}

// Meta describes one stored record.
type Meta struct {
	Key         string    `json:"key"`
	Engine      string    `json:"engine"`
	Fingerprint string    `json:"fingerprint"`
	Entries     uint64    `json:"entries"`
	CacheBytes  uint64    `json:"cache_bytes"`
	SavedAt     time.Time `json:"saved_at"`
	FileBytes   int64     `json:"file_bytes"`
}

// Options configures a Store.
type Options struct {
	// BudgetBytes caps the total on-disk record bytes; Sweep evicts
	// least-recently-used records beyond it (0 = unlimited).
	BudgetBytes uint64
	// Rec receives the store's counters and latency histograms; a nil
	// recorder disables observability, not the store.
	Rec *obs.Recorder
	// Inject, when non-nil, deterministically corrupts or aborts saves so
	// tests can drive every degradation path on demand.
	Inject *faults.StoreInjector
}

// Store is the persistent action-cache store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir    string
	budget uint64
	inject *faults.StoreInjector

	mu       sync.Mutex
	disabled string // non-empty = disabled, with the reason

	hits        *obs.Counter
	misses      *obs.Counter
	corrupt     *obs.Counter
	quarantined *obs.Counter
	evicted     *obs.Counter
	saves       *obs.Counter
	saveErrs    *obs.Counter
	loadNs      *obs.Histogram
	saveNs      *obs.Histogram
}

// Open roots a store at dir, creating it (and its quarantine subdirectory)
// as needed, and removes leftover .tmp staging files from a previous
// crash. An unusable directory returns an error; callers typically log it
// and run without persistence rather than refusing to start.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, QuarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	if _, err := snapshot.CleanupTmp(dir); err != nil {
		return nil, fmt.Errorf("cachestore: cleaning staging files: %w", err)
	}
	reg := opts.Rec.Registry()
	return &Store{
		dir:         dir,
		budget:      opts.BudgetBytes,
		inject:      opts.Inject,
		hits:        reg.Counter("cachestore.hits"),
		misses:      reg.Counter("cachestore.misses"),
		corrupt:     reg.Counter("cachestore.corrupt"),
		quarantined: reg.Counter("cachestore.quarantined"),
		evicted:     reg.Counter("cachestore.evicted_bytes"),
		saves:       reg.Counter("cachestore.saves"),
		saveErrs:    reg.Counter("cachestore.save_errors"),
		loadNs:      reg.Histogram("cachestore.load_ns"),
		saveNs:      reg.Histogram("cachestore.save_ns"),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey vets a lineage key for use as a file name: the store is
// content-addressed, so the key must not smuggle path structure.
func validKey(key string) error {
	if key == "" || len(key) > 128 {
		return fmt.Errorf("cachestore: invalid key %q", key)
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("cachestore: invalid key %q", key)
		}
	}
	if key[0] == '.' {
		return fmt.Errorf("cachestore: invalid key %q", key)
	}
	return nil
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+recordExt)
}

// Disabled reports whether persistence is disabled, and why.
func (s *Store) Disabled() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disabled != "", s.disabled
}

// Disable turns persistence off (saves and loads fail with ErrDisabled).
// The store stays open so health reporting keeps working.
func (s *Store) Disable(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled == "" {
		s.disabled = reason
	}
}

func (s *Store) checkEnabled() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled != "" {
		return fmt.Errorf("%w: %s", ErrDisabled, s.disabled)
	}
	return nil
}

// encode frames one record.
func encode(key, engine, fingerprint string, entries, cacheBytes uint64, savedAt time.Time, payload []byte) []byte {
	w := snapshot.NewWriter()
	w.U64(Version)
	w.String(key)
	w.String(engine)
	w.String(fingerprint)
	w.U64(entries)
	w.U64(cacheBytes)
	w.U64(uint64(savedAt.UnixNano()))
	w.Bytes(payload)
	blob := make([]byte, 0, len(magic)+len(w.Payload())+4)
	blob = append(blob, magic...)
	blob = append(blob, w.Payload()...)
	crc := crc32.Checksum(blob, castagnoli)
	return append(blob, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// decode verifies one record end to end and unpacks it.
func decode(blob []byte) (Meta, []byte, error) {
	if len(blob) < len(magic)+4 {
		return Meta{}, nil, fmt.Errorf("record truncated to %d bytes", len(blob))
	}
	if string(blob[:len(magic)]) != magic {
		return Meta{}, nil, fmt.Errorf("bad magic %q", blob[:len(magic)])
	}
	body, trailer := blob[:len(blob)-4], blob[len(blob)-4:]
	want := uint32(trailer[0]) | uint32(trailer[1])<<8 | uint32(trailer[2])<<16 | uint32(trailer[3])<<24
	if got := crc32.Checksum(body, castagnoli); got != want {
		return Meta{}, nil, fmt.Errorf("CRC32-C mismatch: computed %08x, trailer %08x", got, want)
	}
	r := snapshot.NewReader(body[len(magic):])
	ver := r.U64()
	if r.Err() == nil && ver != Version {
		return Meta{}, nil, fmt.Errorf("record format version %d, this build reads %d", ver, Version)
	}
	m := Meta{
		Key:         r.String(),
		Engine:      r.String(),
		Fingerprint: r.String(),
		Entries:     r.U64(),
		CacheBytes:  r.U64(),
	}
	m.SavedAt = time.Unix(0, int64(r.U64()))
	payload := r.Bytes()
	if err := r.End(); err != nil {
		return Meta{}, nil, fmt.Errorf("record body: %v", err)
	}
	m.FileBytes = int64(len(blob))
	return m, payload, nil
}

// Save persists one detached cache's serialized payload under key,
// atomically replacing any previous record, then sweeps the size budget.
// When the configured injector fires, the corresponding corruption or
// crash is applied instead of (or on top of) the normal write — tests use
// this to produce every on-disk failure mode through the real code path.
func (s *Store) Save(key, engine, fingerprint string, entries, cacheBytes uint64, payload []byte) error {
	if err := s.checkEnabled(); err != nil {
		return err
	}
	if err := validKey(key); err != nil {
		return err
	}
	t0 := time.Now()
	blob := encode(key, engine, fingerprint, entries, cacheBytes, time.Now(), payload)
	path := s.path(key)

	switch fault := s.inject.Arm(); fault {
	case faults.StoreNone:
	case faults.StoreTruncate:
		cut := len(blob)/2 + int(s.inject.Rand()%uint64(len(blob)/2))
		blob = blob[:cut]
	case faults.StoreFlipByte:
		i := int(s.inject.Rand() % uint64(len(blob)))
		blob = append([]byte(nil), blob...)
		blob[i] ^= 0x40
	case faults.StoreBadMagic:
		blob = append([]byte(nil), blob...)
		copy(blob, "NOTSTORE")
	case faults.StoreVersionSkew:
		// Re-encode the body with a future version and a fresh CRC: the
		// record is bit-perfect, just from the future.
		blob = encodeVersionSkewed(key, engine, fingerprint, entries, cacheBytes, payload)
	case faults.StoreENOSPC:
		s.saveErrs.Inc()
		return faults.ErrInjectedENOSPC
	case faults.StoreCrashBeforeRename:
		// Write the staging file for real, then "die": the record never
		// reaches its final name, and the .tmp is swept on the next Open.
		_ = os.WriteFile(path+".tmp", blob, 0o644)
		s.saveErrs.Inc()
		return fmt.Errorf("cachestore: injected crash before rename (%s)", fault)
	}

	if err := snapshot.WriteRawFile(path, blob); err != nil {
		s.saveErrs.Inc()
		return fmt.Errorf("cachestore: save %s: %w", key, err)
	}
	s.saves.Inc()
	s.saveNs.Observe(uint64(time.Since(t0).Nanoseconds()))
	if s.budget > 0 {
		s.Sweep()
	}
	return nil
}

// encodeVersionSkewed builds a record claiming a future format version,
// CRC-valid, for the version-skew injection.
func encodeVersionSkewed(key, engine, fingerprint string, entries, cacheBytes uint64, payload []byte) []byte {
	w := snapshot.NewWriter()
	w.U64(Version + 1)
	w.String(key)
	w.String(engine)
	w.String(fingerprint)
	w.U64(entries)
	w.U64(cacheBytes)
	w.U64(uint64(time.Now().UnixNano()))
	w.Bytes(payload)
	blob := append([]byte(magic), w.Payload()...)
	crc := crc32.Checksum(blob, castagnoli)
	return append(blob, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

// Load reads and verifies the record for key. A verification failure
// quarantines the record and returns a *CorruptError; the caller proceeds
// cold. A hit refreshes the record's recency for the LRU sweep.
func (s *Store) Load(key string) (Meta, []byte, error) {
	if err := s.checkEnabled(); err != nil {
		return Meta{}, nil, err
	}
	if err := validKey(key); err != nil {
		return Meta{}, nil, err
	}
	t0 := time.Now()
	path := s.path(key)
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.misses.Inc()
		return Meta{}, nil, ErrNotFound
	}
	if err != nil {
		s.misses.Inc()
		return Meta{}, nil, fmt.Errorf("cachestore: load %s: %w", key, err)
	}
	m, payload, err := s.verify(path, key, blob)
	if err != nil {
		return Meta{}, nil, err
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // LRU recency; best-effort
	s.hits.Inc()
	s.loadNs.Observe(uint64(time.Since(t0).Nanoseconds()))
	return m, payload, nil
}

// verify decodes blob and cross-checks the embedded key; on any failure it
// quarantines the file and returns a *CorruptError.
func (s *Store) verify(path, key string, blob []byte) (Meta, []byte, error) {
	m, payload, err := decode(blob)
	if err == nil && key != "" && m.Key != key {
		err = fmt.Errorf("record claims key %q, file is addressed as %q", m.Key, key)
	}
	if err != nil {
		return Meta{}, nil, s.quarantine(path, err.Error())
	}
	return m, payload, nil
}

// quarantine moves a corrupt record out of the addressable store, counts
// the corruption, and builds the typed error. When the move itself fails
// the record is removed instead — a corrupt record must never stay
// loadable.
func (s *Store) quarantine(path, reason string) *CorruptError {
	s.corrupt.Inc()
	dst := filepath.Join(s.dir, QuarantineDir,
		fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	ce := &CorruptError{Path: path, Reason: reason, Quarantined: dst}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
		ce.Quarantined = ""
		return ce
	}
	s.quarantined.Inc()
	return ce
}

// QuarantineCount reports how many quarantined records are on disk.
func (s *Store) QuarantineCount() int {
	entries, err := os.ReadDir(filepath.Join(s.dir, QuarantineDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}

// List returns metadata for every verifiable record, sorted by key.
// Records that fail verification are quarantined as List encounters them
// and omitted; listing must not crash on a store with one bad file.
func (s *Store) List() ([]Meta, error) {
	if err := s.checkEnabled(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	var out []Meta
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != recordExt {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		blob, err := os.ReadFile(path)
		if err != nil {
			continue // racing delete/evict
		}
		key := e.Name()[:len(e.Name())-len(recordExt)]
		m, _, err := s.verify(path, key, blob)
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Delete removes the record for key (ErrNotFound when absent).
func (s *Store) Delete(key string) error {
	if err := s.checkEnabled(); err != nil {
		return err
	}
	if err := validKey(key); err != nil {
		return err
	}
	err := os.Remove(s.path(key))
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	return err
}

// Export returns the raw record bytes for key, verified first — exporting
// corruption to another node would defeat the whole point of the trailer.
func (s *Store) Export(key string) ([]byte, error) {
	if err := s.checkEnabled(); err != nil {
		return nil, err
	}
	if err := validKey(key); err != nil {
		return nil, err
	}
	blob, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("cachestore: export %s: %w", key, err)
	}
	if _, _, err := s.verify(s.path(key), key, blob); err != nil {
		return nil, err
	}
	return blob, nil
}

// Import verifies a raw record (as produced by Export, possibly on another
// node) and installs it under its embedded key, which must match key
// (an addressing typo must not silently install under a different name).
// Corrupt imports are rejected without touching the store — quarantine is
// for records that were trusted, not for input that never earned trust.
func (s *Store) Import(key string, blob []byte) (Meta, error) {
	if err := s.checkEnabled(); err != nil {
		return Meta{}, err
	}
	m, _, err := decode(blob)
	if err != nil {
		s.corrupt.Inc()
		return Meta{}, fmt.Errorf("cachestore: import rejected: %v", err)
	}
	if m.Key != key {
		return Meta{}, fmt.Errorf("cachestore: import rejected: record is for key %q, not %q", m.Key, key)
	}
	if err := validKey(m.Key); err != nil {
		return Meta{}, fmt.Errorf("cachestore: import rejected: %v", err)
	}
	if err := snapshot.WriteRawFile(s.path(m.Key), blob); err != nil {
		s.saveErrs.Inc()
		return Meta{}, fmt.Errorf("cachestore: import %s: %w", m.Key, err)
	}
	s.saves.Inc()
	if s.budget > 0 {
		s.Sweep()
	}
	return m, nil
}

// DiskBytes sums the on-disk size of all records (quarantine excluded).
func (s *Store) DiskBytes() uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	var sum uint64
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != recordExt {
			continue
		}
		if fi, err := e.Info(); err == nil {
			sum += uint64(fi.Size())
		}
	}
	return sum
}

// Sweep evicts least-recently-used records until the on-disk total fits
// the budget, returning the bytes evicted. Recency is file mtime, which
// Load refreshes on every hit. With no budget it is a no-op.
func (s *Store) Sweep() uint64 {
	if s.budget == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	type rec struct {
		name  string
		size  uint64
		mtime time.Time
	}
	var recs []rec
	var total uint64
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != recordExt {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{e.Name(), uint64(fi.Size()), fi.ModTime()})
		total += uint64(fi.Size())
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime.Before(recs[j].mtime) })
	var freed uint64
	for _, r := range recs {
		if total <= s.budget {
			break
		}
		if err := os.Remove(filepath.Join(s.dir, r.name)); err != nil {
			continue
		}
		total -= r.size
		freed += r.size
		s.evicted.Add(r.size)
	}
	return freed
}
