package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facile/internal/faults"
	"facile/internal/obs"
)

func openTest(t *testing.T, opts Options) (*Store, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder(obs.Config{})
	opts.Rec = rec
	st, err := Open(filepath.Join(t.TempDir(), "store"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

func counter(rec *obs.Recorder, name string) uint64 {
	return rec.Registry().Counter(name).Load()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, rec := openTest(t, Options{})
	payload := []byte("serialized warm cache bytes")
	if err := st.Save("a1b2", "fastsim", "fp0123", 7, 4096, payload); err != nil {
		t.Fatal(err)
	}
	m, got, err := st.Load("a1b2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: %q != %q", got, payload)
	}
	if m.Key != "a1b2" || m.Engine != "fastsim" || m.Fingerprint != "fp0123" ||
		m.Entries != 7 || m.CacheBytes != 4096 {
		t.Fatalf("meta round trip: %+v", m)
	}
	if m.SavedAt.IsZero() || time.Since(m.SavedAt) > time.Minute {
		t.Fatalf("implausible SavedAt %v", m.SavedAt)
	}
	if counter(rec, "cachestore.hits") != 1 || counter(rec, "cachestore.saves") != 1 {
		t.Fatalf("counters: hits=%d saves=%d, want 1/1",
			counter(rec, "cachestore.hits"), counter(rec, "cachestore.saves"))
	}
	if rec.Registry().Histogram("cachestore.load_ns").Count() != 1 {
		t.Fatal("load latency not observed")
	}
}

func TestLoadMiss(t *testing.T) {
	st, rec := openTest(t, Options{})
	if _, _, err := st.Load("nothere"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if counter(rec, "cachestore.misses") != 1 {
		t.Fatal("miss not counted")
	}
}

func TestInvalidKeys(t *testing.T) {
	st, _ := openTest(t, Options{})
	for _, key := range []string{
		"", ".", "..", ".hidden", "a/b", "../escape", "a b",
		strings.Repeat("k", 129), "nul\x00byte",
	} {
		if err := st.Save(key, "e", "f", 1, 1, []byte("x")); err == nil {
			t.Errorf("Save accepted key %q", key)
		}
		if _, _, err := st.Load(key); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Load of key %q: err = %v, want validation error", key, err)
		}
	}
}

// TestCorruptionQuarantine drives every write-side corruption mode through
// the injector and checks the invariant the whole design rests on: a
// corrupt record is never returned, the evidence moves to quarantine/, and
// the next load of the key is a clean miss (cold start), not an error
// loop.
func TestCorruptionQuarantine(t *testing.T) {
	kinds := []faults.StoreFault{
		faults.StoreTruncate,
		faults.StoreFlipByte,
		faults.StoreBadMagic,
		faults.StoreVersionSkew,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			st, rec := openTest(t, Options{
				Inject: faults.NewStoreInjector(0, 1, kind),
			})
			if err := st.Save("key1", "fastsim", "fp", 3, 64, []byte("payload")); err != nil {
				t.Fatalf("corrupting save still completes the write: %v", err)
			}
			_, _, err := st.Load("key1")
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CorruptError", err)
			}
			if ce.Quarantined == "" {
				t.Fatal("corrupt record not quarantined")
			}
			if _, err := os.Stat(ce.Quarantined); err != nil {
				t.Fatalf("quarantine evidence missing: %v", err)
			}
			if st.QuarantineCount() != 1 {
				t.Fatalf("QuarantineCount = %d, want 1", st.QuarantineCount())
			}
			if counter(rec, "cachestore.corrupt") != 1 || counter(rec, "cachestore.quarantined") != 1 {
				t.Fatal("corruption counters not moved")
			}
			// The key is now a plain miss: the caller runs cold and may re-save.
			if _, _, err := st.Load("key1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("after quarantine: err = %v, want ErrNotFound", err)
			}
			if err := st.Save("key1", "fastsim", "fp", 3, 64, []byte("payload")); err != nil {
				t.Fatalf("re-save after quarantine (injector fires every save, but the write lands): %v", err)
			}
		})
	}
}

// A record whose body holds bytes after the payload, under a CRC that
// covers them, is rejected rather than decoded.
func TestDecodeRejectsBytesAfterPayload(t *testing.T) {
	blob := encode("k", "fastsim", "fp", 1, 2, time.Now(), []byte("payload"))
	if _, _, err := decode(blob); err != nil {
		t.Fatalf("clean record: %v", err)
	}
	body := append(blob[:len(blob)-4:len(blob)-4], 0xde, 0xad)
	crc := crc32.Checksum(body, castagnoli)
	if _, _, err := decode(append(body, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))); err == nil {
		t.Fatal("decode accepted a body with bytes after the payload")
	}
}

func TestInjectedENOSPC(t *testing.T) {
	st, rec := openTest(t, Options{
		Inject: faults.NewStoreInjector(0, 1, faults.StoreENOSPC),
	})
	err := st.Save("key1", "fastsim", "fp", 1, 1, []byte("x"))
	if !errors.Is(err, faults.ErrInjectedENOSPC) {
		t.Fatalf("err = %v, want ErrInjectedENOSPC", err)
	}
	if _, _, err := st.Load("key1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed save left a loadable record: %v", err)
	}
	if counter(rec, "cachestore.save_errors") != 1 {
		t.Fatal("save error not counted")
	}
}

// TestCrashBeforeRenameAndReopen: a save that dies between the staging
// write and the rename leaves only a .tmp; the record never becomes
// visible, and the next Open sweeps the residue.
func TestCrashBeforeRenameAndReopen(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{})
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Open(dir, Options{
		Rec:    rec,
		Inject: faults.NewStoreInjector(0, 1, faults.StoreCrashBeforeRename),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("key1", "fastsim", "fp", 1, 1, []byte("x")); err == nil {
		t.Fatal("crashed save reported success")
	}
	if _, err := os.Stat(filepath.Join(dir, "key1.wc.tmp")); err != nil {
		t.Fatalf("crash did not leave the staging file: %v", err)
	}
	if _, _, err := st.Load("key1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn write became visible: %v", err)
	}
	// Next process: Open cleans the staging residue.
	if _, err := Open(dir, Options{Rec: rec}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "key1.wc.tmp")); !os.IsNotExist(err) {
		t.Fatal("reopen did not sweep the staging file")
	}
}

// TestKeyCrossCheck: a record renamed to another key's address (bad sync
// script, operator error) is quarantined, not served under the wrong key.
func TestKeyCrossCheck(t *testing.T) {
	st, _ := openTest(t, Options{})
	if err := st.Save("keyA", "fastsim", "fp", 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.path("keyA"), st.path("keyB")); err != nil {
		t.Fatal(err)
	}
	_, _, err := st.Load("keyB")
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "keyA") {
		t.Fatalf("err = %v, want CorruptError naming the embedded key", err)
	}
}

func TestListQuarantinesBadRecords(t *testing.T) {
	st, _ := openTest(t, Options{})
	if err := st.Save("good1", "fastsim", "fp", 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("good2", "rt", "fp2", 2, 2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("junk"), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	metas, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Key != "good1" || metas[1].Key != "good2" {
		t.Fatalf("List = %+v, want good1+good2", metas)
	}
	if st.QuarantineCount() != 1 {
		t.Fatalf("junk not quarantined: count %d", st.QuarantineCount())
	}
}

func TestExportImport(t *testing.T) {
	src, _ := openTest(t, Options{})
	payload := []byte("portable cache")
	if err := src.Save("key1", "fastsim", "fp", 5, 512, payload); err != nil {
		t.Fatal(err)
	}
	blob, err := src.Export("key1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Export("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("export of absent key: %v", err)
	}

	dst, _ := openTest(t, Options{})
	m, err := dst.Import("key1", blob)
	if err != nil {
		t.Fatal(err)
	}
	if m.Key != "key1" {
		t.Fatalf("import installed under %q", m.Key)
	}
	if _, got, err := dst.Load("key1"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("imported record: %q, %v", got, err)
	}

	// Addressing a valid record under the wrong key is rejected: an import
	// must land exactly where the caller pointed it.
	if _, err := dst.Import("key2", blob); err == nil {
		t.Fatal("import under a mismatched key accepted")
	}
	if _, _, err := dst.Load("key2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mismatched import left a record behind: %v", err)
	}

	// A corrupt import is rejected without touching the store.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x40
	if _, err := dst.Import("key1", bad); err == nil {
		t.Fatal("corrupt import accepted")
	}
	if dst.QuarantineCount() != 0 {
		t.Fatal("rejected import polluted quarantine (it never earned trust)")
	}
}

// TestSweepLRU: with a byte budget, the least-recently-used records are
// evicted first, and a Load refreshes recency.
func TestSweepLRU(t *testing.T) {
	st, rec := openTest(t, Options{})
	payload := bytes.Repeat([]byte("z"), 256)
	for _, key := range []string{"old", "mid", "hot"} {
		if err := st.Save(key, "fastsim", "fp", 1, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Pin recency explicitly: mtime drives the LRU order.
	base := time.Now().Add(-time.Hour)
	for i, key := range []string{"old", "mid", "hot"} {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(st.path(key), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// A load refreshes "old" to most-recent, so "mid" becomes the victim.
	if _, _, err := st.Load("old"); err != nil {
		t.Fatal(err)
	}

	recSize := st.DiskBytes() / 3
	st.budget = 2 * recSize
	freed := st.Sweep()
	if freed != recSize {
		t.Fatalf("Sweep freed %d, want one record (%d)", freed, recSize)
	}
	if _, _, err := st.Load("mid"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU victim should be mid (stalest after old's refresh): %v", err)
	}
	for _, key := range []string{"old", "hot"} {
		if _, _, err := st.Load(key); err != nil {
			t.Fatalf("record %q evicted out of LRU order: %v", key, err)
		}
	}
	if counter(rec, "cachestore.evicted_bytes") != recSize {
		t.Fatalf("evicted_bytes = %d, want %d", counter(rec, "cachestore.evicted_bytes"), recSize)
	}
}

func TestDisable(t *testing.T) {
	st, _ := openTest(t, Options{})
	if err := st.Save("key1", "fastsim", "fp", 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	st.Disable("test reason")
	if off, reason := st.Disabled(); !off || reason != "test reason" {
		t.Fatalf("Disabled() = %v, %q", off, reason)
	}
	if err := st.Save("key2", "fastsim", "fp", 1, 1, []byte("x")); !errors.Is(err, ErrDisabled) {
		t.Fatalf("Save on disabled store: %v", err)
	}
	if _, _, err := st.Load("key1"); !errors.Is(err, ErrDisabled) {
		t.Fatalf("Load on disabled store: %v", err)
	}
	if _, err := st.List(); !errors.Is(err, ErrDisabled) {
		t.Fatalf("List on disabled store: %v", err)
	}
}

// TestNilRecorderAndInjector: observability and injection are optional;
// the store must work with both absent.
func TestNilRecorderAndInjector(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "s"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("k", "e", "f", 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("k"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentExportDuringSweep hammers the store from three sides at
// once — saves that keep a tight budget sweeping, exports, and loads —
// and asserts the atomic-rename discipline holds under the race: a
// reader sees a complete record or ErrNotFound, never a torn one. This
// is exactly the fleet migration path, where the router exports records
// from a worker that is still saving into a budgeted store.
func TestConcurrentExportDuringSweep(t *testing.T) {
	const (
		keys     = 8
		saves    = 150 // per writer
		payloadN = 4 << 10
	)
	payload := bytes.Repeat([]byte("warm"), payloadN/4)
	// Budget fits about three records, so nearly every save pushes the
	// sweeper into evicting a file readers may be mid-race on.
	st, rec := openTest(t, Options{BudgetBytes: 3 * (payloadN + 512)})
	dst, _ := openTest(t, Options{})
	keyOf := func(i int) string { return fmt.Sprintf("lineage-%d", i%keys) }

	var (
		wg        sync.WaitGroup
		writersWG sync.WaitGroup
		done      = make(chan struct{})
		exported  atomic.Uint64
		loaded    atomic.Uint64
		mu        sync.Mutex // guards dst.Import: cross-store verify, not under test
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		writersWG.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersWG.Done()
			for i := 0; i < saves; i++ {
				k := keyOf(w*3 + i)
				if err := st.Save(k, "fastsim", "fp", 1, uint64(payloadN), payload); err != nil {
					t.Errorf("save %s: %v", k, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := keyOf(r + i)
				if r == 0 {
					blob, err := st.Export(k)
					if errors.Is(err, ErrNotFound) {
						continue // swept or not yet saved: a legal outcome
					}
					if err != nil {
						t.Errorf("export %s: %v", k, err)
						return
					}
					// An exported record must install cleanly elsewhere —
					// that is the whole migration contract.
					mu.Lock()
					_, err = dst.Import(k, blob)
					mu.Unlock()
					if err != nil {
						t.Errorf("import of exported %s: %v", k, err)
						return
					}
					exported.Add(1)
				} else {
					_, got, err := st.Load(k)
					if errors.Is(err, ErrNotFound) {
						continue
					}
					if err != nil {
						t.Errorf("load %s: %v", k, err)
						return
					}
					if !bytes.Equal(got, payload) {
						t.Errorf("load %s: torn payload (%d bytes)", k, len(got))
						return
					}
					loaded.Add(1)
				}
			}
		}(r)
	}
	writersWG.Wait()
	close(done)
	wg.Wait()

	if exported.Load() == 0 || loaded.Load() == 0 {
		t.Fatalf("race not exercised: %d exports, %d loads", exported.Load(), loaded.Load())
	}
	if counter(rec, "cachestore.evicted_bytes") == 0 {
		t.Fatal("budget sweeper never ran; shrink the budget")
	}
	// The one thing that must never happen under this race: a record
	// that reads as corrupt. Torn reads would land here.
	if c, q := counter(rec, "cachestore.corrupt"), counter(rec, "cachestore.quarantined"); c != 0 || q != 0 {
		t.Fatalf("concurrency produced corruption: corrupt=%d quarantined=%d", c, q)
	}
	if st.QuarantineCount() != 0 {
		t.Fatalf("quarantined records on disk: %d", st.QuarantineCount())
	}
}
