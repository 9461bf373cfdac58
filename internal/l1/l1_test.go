package l1

import (
	"testing"

	"piranha/internal/cache"
)

func TestProbeFillInvalidate(t *testing.T) {
	c := New(Data, 0, 0, DefaultConfig())
	a := cache.Addr(0x1000)
	if st, _ := c.Probe(a); st != cache.Invalid {
		t.Fatalf("cold probe state %v", st)
	}
	c.Fill(a.Line(), cache.Exclusive)
	if st, _ := c.Probe(a); st != cache.Exclusive {
		t.Fatalf("state after fill %v", st)
	}
	if st := c.Invalidate(a.Line()); st != cache.Exclusive {
		t.Fatalf("invalidate returned %v", st)
	}
	if c.State(a.Line()) != cache.Invalid {
		t.Fatal("line survived invalidate")
	}
}

func TestSetStateUpgrade(t *testing.T) {
	c := New(Data, 0, 0, DefaultConfig())
	l := cache.Addr(0x40).Line()
	c.Fill(l, cache.Shared)
	c.SetState(l, cache.Modified)
	if c.State(l) != cache.Modified {
		t.Fatal("upgrade failed")
	}
	// SetState on an absent line is a no-op.
	c.SetState(999, cache.Modified)
	if c.State(999) != cache.Invalid {
		t.Fatal("SetState created a line")
	}
}

func TestVictimReturned(t *testing.T) {
	cfg := DefaultConfig()
	c := New(Data, 0, 0, cfg)
	sets := cfg.SizeBytes / cache.LineBytes / cfg.Ways
	// Three lines in one set of a 2-way cache force an eviction.
	l0 := cache.LineAddr(0)
	l1 := cache.LineAddr(sets)
	l2 := cache.LineAddr(2 * sets)
	c.Fill(l0, cache.Modified)
	c.Fill(l1, cache.Shared)
	v := c.Fill(l2, cache.Shared)
	if !v.State.Valid() || v.Tag != l0 || v.State != cache.Modified {
		t.Fatalf("victim %+v, want modified line 0", v)
	}
}

func TestInstructionCacheHasNoStoreBuffer(t *testing.T) {
	i := New(Instruction, 3, 7, DefaultConfig())
	if i.SB != nil {
		t.Fatal("iL1 should not have a store buffer")
	}
	d := New(Data, 3, 6, DefaultConfig())
	if d.SB == nil || d.SB.Size() != 8 {
		t.Fatal("dL1 store buffer missing or wrong size")
	}
	if i.Kind.String() != "iL1" || d.Kind.String() != "dL1" {
		t.Fatal("kind names wrong")
	}
}

func TestTLBIntegration(t *testing.T) {
	c := New(Data, 0, 0, DefaultConfig())
	if _, hit := c.Probe(0x2000); hit {
		t.Fatal("cold TLB hit")
	}
	if _, hit := c.Probe(0x2040); !hit {
		t.Fatal("second line of the page missed the TLB")
	}
}
