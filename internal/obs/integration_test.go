package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"facile/internal/arch/fastsim"
	"facile/internal/arch/uarch"
	"facile/internal/facsim"
	"facile/internal/obs"
	"facile/internal/workloads"
)

// TestFastsimTraceMatchesStats is the tentpole's acceptance property: a
// memoizing run's lifecycle-event totals must equal the run's final Stats,
// one event per counter increment, regardless of ring overwrites. The same
// totals must survive into the exported Chrome trace's memo.totals row.
func TestFastsimTraceMatchesStats(t *testing.T) {
	w, err := workloads.Get("126.gcc", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{RingSize: 256}) // force overwrites
	s := fastsim.New(uarch.Default(), w.Prog, fastsim.Options{
		Memoize:       true,
		CacheCapBytes: 64 << 10, // small cap so clear-when-full fires
		Obs:           rec,
		SampleEvery:   1 << 12,
	})
	res := s.Run(0)
	st := s.Stats()

	checks := []struct {
		kind obs.EventKind
		want uint64
		name string
	}{
		{obs.EvStepReplayed, st.Replays, "Replays"},
		{obs.EvMidStepMiss, st.Misses, "Misses"},
		{obs.EvKeyMiss, st.KeyMisses, "KeyMisses"},
		{obs.EvClearWhenFull, st.CacheClears, "CacheClears"},
		{obs.EvFault, st.Faults, "Faults"},
		{obs.EvInvalidation, st.Invalidations, "Invalidations"},
	}
	for _, c := range checks {
		if got := rec.Count(c.kind); got != c.want {
			t.Errorf("%s events = %d, Stats.%s = %d", c.kind, got, c.name, c.want)
		}
	}
	if st.CacheClears == 0 {
		t.Error("expected at least one clear-when-full under a 64 KiB cap")
	}
	// Registry parity: the per-step replay-length histogram observes exactly
	// one value per replayed step, and the compiled replay substrate (the
	// default dispatch) must actually be exercising fused superinstructions.
	reg := rec.Registry()
	if got := reg.Histogram("fastsim.replay_actions_per_step").Count(); got != st.Replays {
		t.Errorf("replay_actions_per_step count = %d, Stats.Replays = %d", got, st.Replays)
	}
	if reg.Counter("fastsim.fused_runs").Load() == 0 ||
		reg.Counter("fastsim.fused_dispatches").Load() == 0 {
		t.Error("compiled replay dispatched no superinstructions; fusion is vacuous")
	}
	if rec.Dropped() == 0 {
		t.Error("expected ring overwrites with RingSize 256; totals check is vacuous")
	}
	if len(rec.Samples()) == 0 {
		t.Error("no time-series samples recorded")
	}
	last := rec.Samples()[len(rec.Samples())-1]
	if last.Insts != res.Insts || last.Cycles != res.Cycles {
		t.Errorf("final sample (insts %d cycles %d) != result (insts %d cycles %d)",
			last.Insts, last.Cycles, res.Insts, res.Cycles)
	}

	// The exported Chrome trace must carry the exact totals even though the
	// ring only retains the newest 256 events.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Args json.RawMessage `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var totals map[string]uint64
	for _, ev := range trace.TraceEvents {
		if ev.Name == "memo.totals" {
			if err := json.Unmarshal(ev.Args, &totals); err != nil {
				t.Fatal(err)
			}
		}
	}
	if totals == nil {
		t.Fatal("no memo.totals event in exported trace")
	}
	if totals["step-replayed"] != st.Replays || totals["mid-step-miss"] != st.Misses ||
		totals["clear-when-full"] != st.CacheClears {
		t.Fatalf("trace totals %v != stats (replays %d, misses %d, clears %d)",
			totals, st.Replays, st.Misses, st.CacheClears)
	}
}

// TestFacsimObsWiring checks the Facile rt engine emits the same
// event-per-counter mapping through the facsim Options passthrough.
func TestFacsimObsWiring(t *testing.T) {
	w, err := workloads.Get("129.compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{})
	in, err := facsim.NewFunctional(w.Prog, facsim.Options{Memoize: true, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if got := rec.Count(obs.EvStepReplayed); got != st.Replays {
		t.Errorf("replay events = %d, Stats.Replays = %d", got, st.Replays)
	}
	if got := rec.Count(obs.EvMidStepMiss); got != st.Misses {
		t.Errorf("mid-step-miss events = %d, Stats.Misses = %d", got, st.Misses)
	}
	if got := rec.Count(obs.EvKeyMiss); got != st.KeyMisses {
		t.Errorf("key-miss events = %d, Stats.KeyMisses = %d", got, st.KeyMisses)
	}
	if st.Replays == 0 {
		t.Error("memoizing facsim run replayed nothing; wiring test is vacuous")
	}
	if rec.Count(obs.EvPhaseBegin) == 0 || rec.Count(obs.EvPhaseEnd) == 0 {
		t.Error("rt.run phase events missing")
	}
	// Registry parity with fastsim: rt reports the same per-step
	// replay-length histogram, one observation per replayed step, and the
	// replay must have dispatched fused runs.
	reg := rec.Registry()
	if got := reg.Histogram("rt.replay_nodes_per_step").Count(); got != st.Replays {
		t.Errorf("replay_nodes_per_step count = %d, Stats.Replays = %d", got, st.Replays)
	}
	if reg.Counter("rt.fused_dispatches").Load() == 0 {
		t.Error("the replay dispatched no fused run")
	}
}
