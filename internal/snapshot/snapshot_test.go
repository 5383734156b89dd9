package snapshot

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U64(0)
	w.U64(1 << 63)
	w.I64(-42)
	w.I64(1)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.5)
	w.Bytes([]byte("hello"))
	w.String("κλειδί")
	w.I64s([]int64{-1, 0, 9})
	w.U64s([]uint64{2, 4})
	w.I64s(nil)

	r := NewReader(w.Payload())
	if got := r.U64(); got != 0 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.U64(); got != 1<<63 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.I64(); got != 1 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.F64(); got != 3.5 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Bytes = %q", got)
	}
	if got := r.String(); got != "κλειδί" {
		t.Errorf("String = %q", got)
	}
	if got := r.I64s(); len(got) != 3 || got[0] != -1 || got[2] != 9 {
		t.Errorf("I64s = %v", got)
	}
	if got := r.U64s(); len(got) != 2 || got[1] != 4 {
		t.Errorf("U64s = %v", got)
	}
	if got := r.I64s(); len(got) != 0 {
		t.Errorf("nil I64s = %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean stream reported error: %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter()
	w.Bytes(make([]byte, 100))
	payload := w.Payload()
	r := NewReader(payload[:10])
	if got := r.Bytes(); got != nil {
		t.Errorf("truncated Bytes returned %d bytes", len(got))
	}
	if r.Err() == nil {
		t.Fatal("truncated stream reported no error")
	}
	// Sticky: later reads keep failing and return zero values.
	if r.U64() != 0 || r.Err() == nil {
		t.Error("error was not sticky")
	}
}

func TestReaderEndRejectsLeftoverBytes(t *testing.T) {
	w := NewWriter()
	w.U64(7)
	w.String("x")
	r := NewReader(w.Payload())
	r.U64()
	if r.End() == nil {
		t.Error("End accepted a payload with a string left unread")
	}
	if r.String() != "x" {
		t.Fatal("string read back wrong")
	}
	if err := r.End(); err != nil {
		t.Errorf("End on a fully read payload: %v", err)
	}
	short := NewReader(w.Payload()[:1])
	short.U64()
	if short.String() != "" || short.End() == nil {
		t.Error("End lost the truncation error")
	}
}

// A blob whose body holds bytes after the payload, under a digest that
// covers them, is rejected rather than decoded.
func TestDecodeRejectsBytesAfterPayload(t *testing.T) {
	w := NewWriter()
	w.U64(123)
	blob := Encode("testkind", w)
	body := append(blob[:len(blob)-sha256.Size:len(blob)-sha256.Size], 0x01)
	sum := sha256.Sum256(body)
	if _, _, _, err := Decode(append(body, sum[:]...)); err == nil {
		t.Fatal("Decode accepted a body with a byte after the payload")
	}
}

func TestStateHashIgnoresAux(t *testing.T) {
	mk := func(aux uint64) *Writer {
		w := NewWriter()
		w.U64(11)
		w.String("state")
		w.BeginAux()
		w.U64(aux)
		return w
	}
	a, b := mk(1), mk(99999)
	if a.StateHash() != b.StateHash() {
		t.Error("accounting section perturbed the STATE hash")
	}
	c := NewWriter()
	c.U64(12)
	c.String("state")
	c.BeginAux()
	c.U64(1)
	if a.StateHash() == c.StateHash() {
		t.Error("STATE change did not change the hash")
	}
}

func TestFileFormat(t *testing.T) {
	w := NewWriter()
	w.U64(123)
	w.BeginAux()
	w.U64(456)
	blob := Encode("testkind", w)

	kind, r, hash, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "testkind" {
		t.Errorf("kind = %q", kind)
	}
	if hash != w.StateHash() {
		t.Errorf("decoded hash %s != writer hash %s", hash, w.StateHash())
	}
	if got := r.U64(); got != 123 {
		t.Errorf("payload U64 = %d", got)
	}

	// Any single-byte corruption must be caught by the integrity digest.
	for _, i := range []int{0, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, _, _, err := Decode(bad); err == nil {
			t.Errorf("corruption at byte %d went undetected", i)
		}
	}
	if _, _, _, err := Decode(blob[:len(blob)-5]); err == nil {
		t.Error("truncated blob went undetected")
	}
}

func TestFileRoundTrip(t *testing.T) {
	w := NewWriter()
	w.String("persisted")
	path := t.TempDir() + "/x.facsnap"
	hash, err := WriteFile(path, "k", w)
	if err != nil {
		t.Fatal(err)
	}
	kind, r, gotHash, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "k" || gotHash != hash {
		t.Errorf("kind %q hash %s, want k %s", kind, gotHash, hash)
	}
	if got := r.String(); got != "persisted" {
		t.Errorf("payload = %q", got)
	}
	if strings.Contains(path, ".tmp") {
		t.Fatal("unreachable")
	}
}
