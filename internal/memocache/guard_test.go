package memocache

import (
	"slices"
	"testing"

	"facile/internal/faults"
)

// gnode is a toy engine node for the fault layer: placeholder data, a
// step-end mark, and the cache links.
type gnode struct {
	data []int64
	end  bool
	Links[gnode]
}

// gpayload describes gnode with both optional hooks: data truncation, and
// no severing into or out of a step end.
var gpayload = Payload[gnode]{
	Engine: "toy",
	Links:  func(n *gnode) *Links[gnode] { return &n.Links },
	Same:   func(a, b *gnode) bool { return a.end == b.end && slices.Equal(a.data, b.data) },
	Severable: func(n *gnode) bool {
		return !n.end && !n.Next.end
	},
	TruncData: func(n *gnode) bool {
		if len(n.data) == 0 {
			return false
		}
		n.data = n.data[:len(n.data)/2]
		return true
	},
}

// bare is gpayload without the optional hooks.
var bare = Payload[gnode]{Engine: "toy", Links: gpayload.Links, Same: gpayload.Same}

// chain builds a -> b, where b forks on 10 to c and on 11 to d, and
// c -> e, a step end with successor key "succ". a, b and c carry data.
func chain() (e *Entry[gnode], a, b, c, end *gnode) {
	end = &gnode{end: true}
	end.NextKey = "succ"
	c = &gnode{data: []int64{5, 6}}
	c.Next = end
	b = &gnode{data: []int64{3}}
	*b.AddFork(10) = c
	*b.AddFork(11) = &gnode{end: true}
	a = &gnode{data: []int64{1, 2, 3, 4}}
	a.Next = b
	return &Entry[gnode]{Key: "k", First: a}, a, b, c, end
}

func guardOver(p *Payload[gnode], ij *faults.Injector, rate float64) (*Cache[gnode], *Guard[gnode]) {
	c := NewCache[gnode](0, nil)
	g := NewGuard(c, p, ij, rate)
	return c, &g
}

func TestCorruptMutatesAsDocumented(t *testing.T) {
	inj := func(seed uint64) *faults.Injector { return faults.NewInjector(seed, 1, faults.InjBreakChain) }

	t.Run("break-chain", func(t *testing.T) {
		for seed := uint64(1); seed <= 8; seed++ {
			// Without a Severable hook both a->b and c->end qualify; with
			// gpayload's only a->b does.
			for _, p := range []*Payload[gnode]{&bare, &gpayload} {
				_, g := guardOver(p, inj(seed), 0)
				e, a, _, c, _ := chain()
				g.Corrupt(e, faults.InjBreakChain)
				severed := 0
				for _, n := range []*gnode{a, c} {
					if n.Next == nil {
						severed++
					}
				}
				if severed != 1 || e.First != a || e.CVer != 1 {
					t.Fatalf("seed %d: severed %d links, head kept %v, CVer %d; want 1, true, 1",
						seed, severed, e.First == a, e.CVer)
				}
				if p == &gpayload && c.Next == nil {
					t.Fatalf("seed %d: severed the link into a step end", seed)
				}
			}
		}
	})

	t.Run("flip-fork", func(t *testing.T) {
		_, g := guardOver(&bare, inj(3), 0)
		e, _, b, _, _ := chain()
		g.Corrupt(e, faults.InjFlipFork)
		flipped := 0
		for i, want := range []uint64{10, 11} {
			switch b.Forks[i].Val {
			case want:
			case want ^ 1<<62:
				flipped++
			default:
				t.Fatalf("fork %d holds %d", i, b.Forks[i].Val)
			}
		}
		if flipped != 1 || e.CVer != 1 {
			t.Fatalf("flipped %d forks, CVer %d; want 1, 1", flipped, e.CVer)
		}
	})

	t.Run("truncate-key", func(t *testing.T) {
		_, g := guardOver(&bare, inj(3), 0)
		e, _, _, _, end := chain()
		end.Link = e
		g.Corrupt(e, faults.InjTruncate)
		if end.NextKey != "s\xf5" || end.Link != nil || e.CVer != 1 {
			t.Fatalf("key %q, link kept %v, CVer %d; want \"s\\xf5\", false, 1",
				end.NextKey, end.Link != nil, e.CVer)
		}
	})

	t.Run("truncate-data-or-key", func(t *testing.T) {
		var sawData, sawKey bool
		for seed := uint64(1); seed <= 16; seed++ {
			_, g := guardOver(&gpayload, inj(seed), 0)
			e, a, _, _, end := chain()
			g.Corrupt(e, faults.InjTruncate)
			switch {
			case len(a.data) == 2 && end.NextKey == "succ":
				sawData = true
			case len(a.data) == 4 && end.NextKey == "s\xf5":
				sawKey = true
			default:
				t.Fatalf("seed %d: head data %v, key %q", seed, a.data, end.NextKey)
			}
		}
		if !sawData || !sawKey {
			t.Fatalf("over 16 seeds: data truncated %v, key truncated %v; want both", sawData, sawKey)
		}
	})

	t.Run("gen-bump", func(t *testing.T) {
		c, g := guardOver(&bare, inj(3), 0)
		e, _, _, _, _ := chain()
		c.Put(e)
		gen := c.G.Gen
		g.Corrupt(e, faults.InjGenBump)
		if c.Len() != 0 || c.G.Gen == gen || c.G.Clears != 1 || e.CVer != 1 {
			t.Fatalf("entries %d, gen moved %v, clears %d, CVer %d", c.Len(), c.G.Gen != gen, c.G.Clears, e.CVer)
		}
	})

	// With nothing to corrupt, every injection severs the head.
	for _, k := range []faults.Injection{faults.InjBreakChain, faults.InjFlipFork, faults.InjTruncate} {
		_, g := guardOver(&gpayload, inj(3), 0)
		e := &Entry[gnode]{Key: "k", First: &gnode{}}
		g.Corrupt(e, k)
		if e.First != nil || e.CVer != 1 {
			t.Errorf("%v on a lone node: head kept %v, CVer %d", k, e.First != nil, e.CVer)
		}
	}
}

func TestLookupAppliesPolicies(t *testing.T) {
	c, g := guardOver(&bare, nil, 0)
	if g.Hooked() {
		t.Fatal("a guard with no policies is hooked")
	}
	e, _, _, _, _ := chain()
	c.Put(e)
	if got, check := g.Lookup("k"); got != e || check {
		t.Fatalf("plain lookup: entry %v, check %v", got == e, check)
	}
	if got, _ := g.Lookup("other"); got != nil {
		t.Fatal("lookup of an absent key found an entry")
	}

	// Every lookup is armed; a generation bump turns the hit into a miss.
	c, g = guardOver(&bare, faults.NewInjector(1, 1, faults.InjGenBump), 1)
	c.Put(e)
	if !g.Hooked() {
		t.Fatal("a guard with an injector is not hooked")
	}
	if got, check := g.Lookup("k"); got != nil || check {
		t.Fatalf("lookup after an injected clear: entry %v, check %v", got != nil, check)
	}

	// A rate of 1 checks every step.
	c, g = guardOver(&bare, nil, 1)
	c.Put(e)
	if _, check := g.Lookup("k"); !check {
		t.Fatal("rate 1 did not sample the step")
	}
}

func TestVerifyWalkOutcomes(t *testing.T) {
	copyOf := func(n *gnode) *gnode {
		l := &gnode{data: n.data, end: n.end}
		l.NextKey = n.NextKey
		return l
	}
	setup := func() (*Cache[gnode], *Guard[gnode], *Entry[gnode], *gnode, *gnode, *gnode) {
		c, g := guardOver(&bare, nil, 1)
		e, a, b, _, end := chain()
		c.Put(e)
		c.Charge(e, 100)
		return c, g, e, a, b, end
	}

	t.Run("match", func(t *testing.T) {
		_, g, e, a, b, end := setup()
		var misses uint64
		v := g.Check(e, &misses)
		v.Match(copyOf(a))
		v.Match(copyOf(b))
		if tail := v.Fork(10); tail != nil {
			t.Fatal("a recorded value started recording")
		}
		v.Match(copyOf(b.Forks[0].Next))
		v.Match(copyOf(end))
		if v.mode != verifying || g.Faults != 0 || misses != 0 || g.SelfChecks != 1 {
			t.Fatalf("mode %d, faults %d, misses %d, self-checks %d", v.mode, g.Faults, misses, g.SelfChecks)
		}
	})

	t.Run("first-time value", func(t *testing.T) {
		c, g, e, a, b, _ := setup()
		var misses uint64
		bytes := e.Bytes
		v := g.Check(e, &misses)
		v.Match(copyOf(a))
		v.Match(copyOf(b))
		tail := v.Fork(12)
		if tail == nil || *tail != nil || v.mode != recording || v.Checking() {
			t.Fatalf("fork on a new value: tail %v, mode %d", tail != nil, v.mode)
		}
		if len(b.Forks) != 3 || b.Forks[2].Val != 12 || misses != 1 || g.Faults != 0 {
			t.Fatalf("forks %d, misses %d, faults %d", len(b.Forks), misses, g.Faults)
		}
		if e.Bytes != bytes+ForkBytes || c.G.Bytes != e.Bytes {
			t.Fatalf("entry bytes %d (was %d), gauge %d", e.Bytes, bytes, c.G.Bytes)
		}
		v.Match(&gnode{data: []int64{99}}) // recording: no longer compared
		if v.mode != recording || g.Faults != 0 {
			t.Fatal("a recording walk compared a node")
		}
	})

	for name, step := range map[string]func(v *Verify[gnode], a, b *gnode){
		"field": func(v *Verify[gnode], a, b *gnode) { v.Match(&gnode{data: []int64{1, 2, 3, 5}}) },
		"key":   func(v *Verify[gnode], a, b *gnode) { v.Match(&gnode{data: a.data, Links: Links[gnode]{NextKey: "x"}}) },
		"chain end": func(v *Verify[gnode], a, b *gnode) {
			v.Match(copyOf(a))
			v.Match(copyOf(b))
			v.Fork(11)
			v.Match(&gnode{end: true})
			v.Match(&gnode{})
		},
	} {
		t.Run("divergence/"+name, func(t *testing.T) {
			c, g, e, a, b, _ := setup()
			var misses uint64
			v := g.Check(e, &misses)
			step(v, a, b)
			if v.mode != diverged || !v.Checking() {
				t.Fatalf("mode %d after a divergence", v.mode)
			}
			if g.Faults != 1 || g.SelfCheckDivergences != 1 || g.DegradedSteps != 1 ||
				g.Last == nil || g.Last.Kind != faults.SelfCheckDivergence || g.Last.Engine != "toy" {
				t.Fatalf("fault log %+v, last %v", g.FaultStats, g.Last)
			}
			if c.Len() != 0 || c.G.Bytes != 0 || c.G.Invalidations != 1 || e.Bytes != 0 {
				t.Fatalf("entries %d, gauge %d, invalidations %d, entry bytes %d; want the entry invalidated and refunded",
					c.Len(), c.G.Bytes, c.G.Invalidations, e.Bytes)
			}
			v.Match(&gnode{})
			if v.Fork(1) != nil || g.Faults != 1 {
				t.Fatal("a live walk still compared")
			}
		})
	}
}
