package rt

import (
	"facile/internal/faults"
	"facile/internal/lang/ir"
)

// Hooks into machine internals for the external rt_test package.

// forEachNode visits every node of a recorded chain, fork branches
// included.
func forEachNode(n *node, visit func(*node)) {
	for ; n != nil; n = n.next {
		visit(n)
		for i := range n.forks {
			forEachNode(n.forks[i].next, visit)
		}
	}
}

// SpineKeyVetted reports whether the machine's next step has a cache entry
// whose first-recorded path ends in a successor key vetted at the entry's
// current version — the key InjTruncate truncates.
func SpineKeyVetted(m *Machine) bool {
	e := m.ac.get(m.curKey)
	if e == nil {
		return false
	}
	var ret *node
	for n := e.first; n != nil; n = spineNext(n) {
		if n.nextKey != "" {
			ret = n
		}
	}
	return ret != nil && ret.keyVer == e.keyMark()
}

// ForgetVettedKeys clears every successor-key vetting mark in the cache,
// as if each key were vetted on every replay.
func ForgetVettedKeys(m *Machine) {
	for _, e := range m.ac.m {
		forEachNode(e.first, func(n *node) { n.keyVer = 0 })
	}
}

// InjectNext applies one fault injection to the cache entry of the
// machine's next step, reporting whether there was one.
func InjectNext(m *Machine, inj faults.Injection) bool {
	e := m.ac.get(m.curKey)
	if e == nil {
		return false
	}
	m.injectFault(e, inj)
	return true
}

// ReplayedNodes returns how many action nodes the last replay completed
// before it ended or faulted.
func ReplayedNodes(m *Machine) uint64 { return m.nodes }

// CountCompiledForks appends a counting closure to the compiled chain of
// every fork block (one ending in a dynamic-result test), so the returned
// counter records each compiled execution of a fork node.
func CountCompiledForks(m *Machine) *uint64 {
	var count uint64
	for bi, blk := range m.p.Blocks {
		switch blk.DynTerm {
		case ir.DTBr, ir.DTSetArg, ir.DTPin:
			if bc := &m.code[bi]; bc.ok {
				bc.fns = append(bc.fns, func(*Machine, []int64) { count++ })
			}
		}
	}
	return &count
}
