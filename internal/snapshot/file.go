package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// Blob format (version 1):
//
//	magic   [8]byte  "FACSNAP1"
//	version uvarint
//	kind    string   engine kind ("func", "ooo", "fastsim", "fac-ooo", ...)
//	auxOff  uvarint  offset of the accounting section within the payload
//	payload bytes    length-prefixed
//	digest  [32]byte SHA-256 of everything before it (integrity check)
//
// The stable content hash reported alongside a snapshot is the SHA-256 of
// payload[:auxOff] — the STATE section only — so it is independent of
// accounting counters and of the container framing.

const magic = "FACSNAP1"

// Version is the current snapshot format version. Bump it on any change to
// a SaveState field order; Decode rejects mismatches rather than guessing.
const Version = 1

// Encode frames a completed Writer into a self-describing blob.
func Encode(kind string, w *Writer) []byte {
	var hdr Writer
	hdr.buf = append(hdr.buf, magic...)
	hdr.U64(Version)
	hdr.String(kind)
	hdr.U64(uint64(w.stateLen()))
	hdr.Bytes(w.Payload())
	sum := sha256.Sum256(hdr.buf)
	return append(hdr.buf, sum[:]...)
}

// Decode verifies and unpacks a blob. It returns the engine kind, a Reader
// positioned at the start of the payload, and the STATE content hash.
func Decode(blob []byte) (kind string, r *Reader, stateHash string, err error) {
	if len(blob) < len(magic)+sha256.Size || string(blob[:len(magic)]) != magic {
		return "", nil, "", fmt.Errorf("snapshot: not a snapshot (bad magic)")
	}
	body, digest := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(digest) {
		return "", nil, "", fmt.Errorf("snapshot: integrity check failed (corrupt file)")
	}
	hr := NewReader(body[len(magic):])
	ver := hr.U64()
	if hr.Err() == nil && ver != Version {
		return "", nil, "", fmt.Errorf("snapshot: format version %d, this build reads %d", ver, Version)
	}
	kind = hr.String()
	auxOff := hr.U64()
	payload := hr.Bytes()
	if err := hr.End(); err != nil {
		return "", nil, "", err
	}
	if auxOff > uint64(len(payload)) {
		return "", nil, "", fmt.Errorf("snapshot: accounting offset %d beyond payload", auxOff)
	}
	sum := sha256.Sum256(payload[:auxOff])
	return kind, NewReader(payload), hex.EncodeToString(sum[:]), nil
}

// injectFileErr is the failure-injection seam for WriteRawFile: when
// non-nil it may fail any stage ("create", "write", "sync", "close",
// "rename") with an arbitrary error, so tests can drive the ENOSPC and
// crash failure paths on demand. Production code never sets it.
var injectFileErr func(op, path string) error

func injected(op, path string) error {
	if injectFileErr == nil {
		return nil
	}
	return injectFileErr(op, path)
}

// WriteRawFile atomically writes blob to path via the temp-file + fsync +
// rename discipline: a reader never observes a partial file under the
// final name, and a crash at any point leaves at worst a stale
// "<base>.*.tmp" for CleanupTmp to collect on the next start. Every
// failure path removes the temporary file. The staging name is unique
// per call, so concurrent writers to the same path never share a temp
// file — each rename installs one writer's complete bytes, last one
// winning.
func WriteRawFile(path string, blob []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil { // CreateTemp defaults to 0600
		f.Close()
		os.Remove(f.Name())
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := injected("write", path); err != nil {
		return fail(err)
	}
	if _, err := f.Write(blob); err != nil {
		return fail(err)
	}
	if err := injected("sync", path); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := injected("rename", path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Sync the directory so the rename itself is durable. Best-effort: some
	// platforms cannot fsync a directory handle.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// CleanupTmp removes leftover "*.tmp" staging files in dir — the residue
// of a crash between a WriteRawFile's write and its rename. Callers run it
// once at startup, before reading the directory's records. It returns the
// names removed; a missing directory is an empty result, not an error.
func CleanupTmp(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".tmp" {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, err
		}
		removed = append(removed, e.Name())
	}
	return removed, nil
}

// WriteFile atomically writes an encoded snapshot and returns its STATE
// content hash. See WriteRawFile for the crash-consistency discipline.
func WriteFile(path, kind string, w *Writer) (stateHash string, err error) {
	if err := WriteRawFile(path, Encode(kind, w)); err != nil {
		return "", err
	}
	return w.StateHash(), nil
}

// ReadFile reads and verifies a snapshot file.
func ReadFile(path string) (kind string, r *Reader, stateHash string, err error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return "", nil, "", err
	}
	return Decode(blob)
}
