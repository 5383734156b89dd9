package rt

import (
	"sort"

	"facile/internal/faults"
	"facile/internal/memocache"
)

// Hooks into machine internals for the external rt_test package.

// forEachNode visits every node of a recorded chain, fork branches
// included.
func forEachNode(n *node, visit func(*node)) {
	for ; n != nil; n = n.Next {
		visit(n)
		for i := range n.Forks {
			forEachNode(n.Forks[i].Next, visit)
		}
	}
}

// SpineKeyVetted reports whether the machine's next step has a cache entry
// whose first-recorded path ends in a successor key vetted at the entry's
// current version — the key InjTruncate truncates.
func SpineKeyVetted(m *Machine) bool {
	e := m.ac.Get(m.curKey)
	if e == nil {
		return false
	}
	var ret *node
	for n := e.First; n != nil; n = n.Spine() {
		if n.NextKey != "" {
			ret = n
		}
	}
	return ret != nil && ret.keyVer == e.KeyMark()
}

// ForgetVettedKeys clears every successor-key vetting mark in the cache,
// as if each key were vetted on every replay.
func ForgetVettedKeys(m *Machine) {
	m.ac.Each(func(e *memocache.Entry[node]) {
		forEachNode(e.First, func(n *node) { n.keyVer = 0 })
	})
}

// EntryBytes sums the bytes charged by the entries installed in the
// machine's cache: the occupancy the gauge should report.
func EntryBytes(m *Machine) uint64 {
	var sum uint64
	m.ac.Each(func(e *memocache.Entry[node]) { sum += e.Bytes })
	return sum
}

// ActionCache returns the machine's cache of recorded steps.
func ActionCache(m *Machine) *memocache.Cache[node] { return m.ac }

// Entries returns the entries installed in the machine's cache, in key
// order.
func Entries(m *Machine) []*memocache.Entry[node] {
	var ents []*memocache.Entry[node]
	m.ac.Each(func(e *memocache.Entry[node]) { ents = append(ents, e) })
	sort.Slice(ents, func(i, j int) bool { return ents[i].Key < ents[j].Key })
	return ents
}

// InjectNext applies one fault injection to the cache entry of the
// machine's next step, reporting whether there was one.
func InjectNext(m *Machine, inj faults.Injection) bool {
	e := m.ac.Get(m.curKey)
	if e == nil {
		return false
	}
	m.g.Corrupt(e, inj)
	return true
}

// ReplayedNodes returns how many action nodes the last replay completed
// before it ended or faulted.
func ReplayedNodes(m *Machine) uint64 { return m.nodes }
