// Package faults defines the fault taxonomy and the deterministic fault
// injector shared by the two memoization engines (internal/arch/fastsim and
// internal/rt).
//
// The paper's coupling between the slow/complete simulator and the
// fast/residual simulator makes the specialized action cache a disposable
// acceleration structure: the slow simulator is always correct, and every
// cache miss already recovers through it (§2.1, §6.1). This package extends
// that discipline from *value* misses to *structural* faults: any internal
// inconsistency detected in a cache entry — a severed action chain, a
// corrupted fork, truncated placeholder data, an unparseable successor key,
// a runaway replay — is classified here, and the engines respond by
// invalidating the offending entry, discarding the partial replay, and
// degrading the step to the slow simulator instead of crashing.
package faults

import "fmt"

// Kind classifies an invariant violation detected on the memoized fast
// path.
type Kind uint8

// Fault kinds. Each names the invariant that was violated, not the action
// taken; the response (invalidate + degrade) is uniform.
const (
	// BrokenChain: an action chain ended (nil link) before the recorded
	// end-of-step action.
	BrokenChain Kind = iota
	// CorruptKey: a recorded successor key failed to parse back into
	// run-time static state.
	CorruptKey
	// TruncatedData: a recorded action carried fewer placeholder values
	// than its block consumes.
	TruncatedData
	// BadAction: a recorded action references out-of-range structures
	// (block IDs, unregistered externs, unknown operations).
	BadAction
	// RecoveryOverrun: the recovery cursor ran past the replayed path —
	// the recorded entry and the re-run slow step disagree about the
	// step's dynamic operations.
	RecoveryOverrun
	// RecoveryIncomplete: a recovery re-run reached the end of the step
	// without consuming the whole replayed path.
	RecoveryIncomplete
	// WatchdogReplay: a single replayed step exceeded the action/node
	// watchdog bound (a cycle in the recorded graph, or a runaway step).
	WatchdogReplay
	// WatchdogStep: a single slow step exceeded its cycle/instruction
	// watchdog bound.
	WatchdogStep
	// SelfCheckDivergence: a sampled self-check re-execution of a cached
	// step on the slow simulator disagreed with the recorded actions.
	SelfCheckDivergence

	numKinds
)

var kindNames = [numKinds]string{
	"broken-chain",
	"corrupt-key",
	"truncated-data",
	"bad-action",
	"recovery-overrun",
	"recovery-incomplete",
	"watchdog-replay",
	"watchdog-step",
	"self-check-divergence",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("faults.Kind(%d)", uint8(k))
}

// Fault describes one recovered invariant violation.
type Fault struct {
	Kind   Kind
	Engine string // "fastsim" or "rt"
	Detail string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%s: %s fault: %s", f.Engine, f.Kind, f.Detail)
}

// New builds a Fault.
func New(kind Kind, engine, detail string) *Fault {
	return &Fault{Kind: kind, Engine: engine, Detail: detail}
}

// Injection selects a corruption applied to a live action cache entry just
// before it is replayed, so tests can drive every recovery path on demand.
// memocache.Guard.Corrupt applies it, for both engines.
type Injection uint8

// Injection kinds.
const (
	InjNone Injection = iota
	// InjBreakChain severs a next link a few actions into the entry.
	InjBreakChain
	// InjFlipFork flips a recorded fork value, turning a previously seen
	// dynamic result into an apparent first-time value.
	InjFlipFork
	// InjTruncate truncates recorded data: placeholder values or the
	// step's successor key in rt, the successor key in fastsim.
	InjTruncate
	// InjGenBump clears the cache underneath an in-flight replay, as
	// clear-when-full would, forcing the stale-generation handling.
	InjGenBump
)

var injNames = [...]string{"none", "break-chain", "flip-fork", "truncate", "gen-bump"}

func (i Injection) String() string {
	if int(i) < len(injNames) {
		return injNames[i]
	}
	return fmt.Sprintf("faults.Injection(%d)", uint8(i))
}

// Injector deterministically decides when and how to corrupt cache entries.
// It is armed once per replay opportunity; every `every`-th arm fires one of
// the configured injection kinds, chosen by a seeded xorshift PRNG so runs
// are reproducible. A nil Injector never fires.
type Injector struct {
	kinds []Injection
	every uint64
	state uint64
	armed uint64
	fired uint64
}

// NewInjector builds an injector that fires one of kinds on every every-th
// Arm call. A zero `every` disables it.
func NewInjector(seed, every uint64, kinds ...Injection) *Injector {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Injector{kinds: kinds, every: every, state: seed}
}

// Arm records one replay opportunity and returns the injection to apply,
// or InjNone.
func (ij *Injector) Arm() Injection {
	if ij == nil || ij.every == 0 || len(ij.kinds) == 0 {
		return InjNone
	}
	ij.armed++
	if ij.armed%ij.every != 0 {
		return InjNone
	}
	ij.fired++
	return ij.kinds[ij.Rand()%uint64(len(ij.kinds))]
}

// Rand returns the next value of the injector's deterministic PRNG, for
// engines to derive corruption parameters (severing depth, fork index).
func (ij *Injector) Rand() uint64 {
	ij.state = XorShift(ij.state)
	return ij.state
}

// XorShift advances a xorshift64 PRNG state: the injector's generator, and
// the self-check sampler's.
func XorShift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// Fired reports how many injections have fired.
func (ij *Injector) Fired() uint64 {
	if ij == nil {
		return 0
	}
	return ij.fired
}
