package rt_test

import (
	"testing"

	"facile/internal/rt"
	"facile/internal/snapshot"
)

// TestMemoAndPlainSnapshotsAgree: a memoizing and a non-memoizing machine
// stopped at the same step save the same state, although the memoizing one
// replayed its way there and holds main's arguments only in its step key
// while the other never builds a key. Each snapshot also resumes a machine
// of the other kind to the uninterrupted run's end state.
func TestMemoAndPlainSnapshotsAgree(t *testing.T) {
	const total = 300
	ref := newForkHeavy(t, rt.Options{})
	if err := ref.Run(total); err != nil {
		t.Fatal(err)
	}
	refKey, _ := ref.DebugState()
	for _, at := range []uint64{1, 9, 150} {
		plain := newForkHeavy(t, rt.Options{})
		memo := newForkHeavy(t, rt.Options{Memoize: true})
		var ws [2]*snapshot.Writer
		for i, m := range []*rt.Machine{plain, memo} {
			if err := m.Run(at); err != nil {
				t.Fatal(err)
			}
			ws[i] = snapshot.NewWriter()
			m.SaveState(ws[i])
		}
		if at > 9 && memo.Stats().Replays == 0 {
			t.Fatalf("step %d: the memoizing machine never replayed", at)
		}
		if hp, hm := ws[0].StateHash(), ws[1].StateHash(); hp != hm {
			t.Errorf("step %d: state hash %s without memoization, %s with", at, hp, hm)
		}
		for i, opt := range []rt.Options{{Memoize: true}, {}} {
			m := newForkHeavy(t, opt)
			if err := m.LoadState(snapshot.NewReader(ws[i].Payload())); err != nil {
				t.Fatal(err)
			}
			if err := m.Run(total); err != nil {
				t.Fatal(err)
			}
			sameResults(t, ref, m, nil, nil)
			if k, _ := m.DebugState(); k != refKey {
				t.Errorf("step %d, memoize=%v: resumed run ends at key %q, uninterrupted %q", at, opt.Memoize, k, refKey)
			}
		}
	}
}
