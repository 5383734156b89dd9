package rt

import (
	"fmt"

	"facile/internal/snapshot"
)

// SaveState serializes a queue's contents.
func (q *Queue) SaveState(w *snapshot.Writer) {
	w.I64s(q.data)
}

// LoadState restores a queue built with the same capacity and width.
func (q *Queue) LoadState(r *snapshot.Reader) error {
	data := r.I64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(data)%q.width != 0 || len(data)/q.width > q.cap {
		return fmt.Errorf("rt: snapshot queue holds %d values, queue is %d×%d", len(data), q.cap, q.width)
	}
	q.data = append(q.data[:0], data...)
	return nil
}

// SaveState serializes the machine's complete run-time state at a step
// boundary: globals, arrays, queues, main's argument state, the pending
// step key, and the self-check PRNG. A memoizing and a non-memoizing
// machine at the same step save the same state.
//
// The accounting section carries the run statistics; the action cache is
// deliberately excluded and re-warms after a restore, so a restored run's
// slow/replayed split differs from an uninterrupted one while its program
// results and step evolution are bit-identical. Externs are process-local
// host functions: the caller re-registers them (with their own saved state,
// e.g. facsim's Env) when rebuilding the machine.
func (m *Machine) SaveState(w *snapshot.Writer) {
	if m.opt.Memoize && m.started && parseKey(m.curKey, m.argI, m.argQ) {
		// Replay advances only the step key: bring main's arguments up to
		// date from it, as the next slow step would. Replay never reads
		// them.
		copy(m.argBuf, m.argI)
	}
	w.I64s(m.globals)
	w.U64(uint64(len(m.arrays)))
	for _, a := range m.arrays {
		w.I64s(a)
	}
	w.U64(uint64(len(m.queuesG)))
	for _, q := range m.queuesG {
		q.SaveState(w)
	}
	w.U64(uint64(len(m.argQ)))
	for _, q := range m.argQ {
		q.SaveState(w)
	}
	w.I64s(m.argI)
	w.I64s(m.argBuf)
	w.String(m.nextKey())
	w.Bool(m.started)
	w.Bool(m.done)
	w.U64(m.g.SampleState)

	w.BeginAux()
	w.U64(m.stats.SlowSteps)
	w.U64(m.stats.Replays)
	w.U64(m.stats.Misses)
	w.U64(m.stats.KeyMisses)
	w.U64(m.stats.SlowInsts)
	w.U64(m.stats.FastOps)
	m.g.SaveCounts(w)
	w.U64(m.ac.G.TotalBytes)
	w.U64(m.ac.G.Clears)
	w.U64(m.ac.G.Invalidations)
}

// LoadState restores a machine built from the same compiled program. The
// action cache starts empty and re-warms.
func (m *Machine) LoadState(r *snapshot.Reader) error {
	globals := r.I64s()
	if r.Err() == nil && len(globals) != len(m.globals) {
		return fmt.Errorf("rt: snapshot has %d globals, program declares %d", len(globals), len(m.globals))
	}
	copy(m.globals, globals)
	na := r.U64()
	if r.Err() == nil && na != uint64(len(m.arrays)) {
		return fmt.Errorf("rt: snapshot has %d arrays, program declares %d", na, len(m.arrays))
	}
	for i := range m.arrays {
		a := r.I64s()
		if r.Err() != nil {
			return r.Err()
		}
		if len(a) != len(m.arrays[i]) {
			return fmt.Errorf("rt: snapshot array %d has %d elements, program declares %d", i, len(a), len(m.arrays[i]))
		}
		copy(m.arrays[i], a)
	}
	nq := r.U64()
	if r.Err() == nil && nq != uint64(len(m.queuesG)) {
		return fmt.Errorf("rt: snapshot has %d global queues, program declares %d", nq, len(m.queuesG))
	}
	for _, q := range m.queuesG {
		if err := q.LoadState(r); err != nil {
			return err
		}
	}
	naq := r.U64()
	if r.Err() == nil && naq != uint64(len(m.argQ)) {
		return fmt.Errorf("rt: snapshot has %d queue arguments, main declares %d", naq, len(m.argQ))
	}
	for _, q := range m.argQ {
		if err := q.LoadState(r); err != nil {
			return err
		}
	}
	argI := r.I64s()
	argBuf := r.I64s()
	if r.Err() == nil && (len(argI) != len(m.argI) || len(argBuf) != len(m.argBuf)) {
		return fmt.Errorf("rt: snapshot argument count does not match main's signature")
	}
	copy(m.argI, argI)
	copy(m.argBuf, argBuf)
	key := r.String()
	m.started = r.Bool()
	m.done = r.Bool()
	m.g.SampleState = r.U64()
	if m.started && key != "" && !validKey(key, len(m.argI), m.argQ) {
		return fmt.Errorf("rt: snapshot step key does not parse against this program")
	}
	m.curKey = ""
	if m.opt.Memoize {
		m.curKey = key
	} else if m.started && key != "" {
		// The key, validated above, is the authority on main's arguments;
		// a non-memoizing machine keeps the arguments instead.
		parseKey(key, m.argI, m.argQ)
	}

	m.stats.SlowSteps = r.U64()
	m.stats.Replays = r.U64()
	m.stats.Misses = r.U64()
	m.stats.KeyMisses = r.U64()
	m.stats.SlowInsts = r.U64()
	m.stats.FastOps = r.U64()
	m.g.LoadCounts(r)
	m.ac.G.TotalBytes = r.U64()
	m.ac.G.Clears = r.U64()
	m.ac.G.Invalidations = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	m.g.Last = nil
	m.path = m.path[:0]
	m.nodes = 0
	m.stepKey = ""
	return nil
}

// StateHash returns the stable content hash of the machine's run-time
// state (the STATE section of SaveState).
func (m *Machine) StateHash() string {
	w := snapshot.NewWriter()
	m.SaveState(w)
	return w.StateHash()
}
