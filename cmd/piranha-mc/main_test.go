package main

import (
	"testing"

	"piranha/internal/mcheck"
)

// TestBudgetError: every budget flag whose value mcheck.Config would
// replace by its default or its limit, or misreport, is refused with a
// message naming it, and usable budgets pass.
func TestBudgetError(t *testing.T) {
	ok := mcheck.Config{Nodes: 2, MaxOps: 4, MaxStates: 4_000_000, TSRFEntries: 4, MaxViolations: 1}
	cases := []struct {
		set  func(*mcheck.Config)
		want string // "" when the budgets are accepted
	}{
		{func(c *mcheck.Config) { c.MaxOps = 0 }, "piranha-mc: -ops must be at least 1"},
		{func(c *mcheck.Config) { c.MaxOps = -1 }, "piranha-mc: -ops must be at least 1"},
		{func(c *mcheck.Config) { c.TSRFEntries = 0 }, "piranha-mc: -tsrf must be at least 1"},
		{func(c *mcheck.Config) { c.TSRFEntries = -1 }, "piranha-mc: -tsrf must be at least 1"},
		{func(c *mcheck.Config) { c.MaxStates = 0 }, "piranha-mc: -max-states must be at least 1"},
		{func(c *mcheck.Config) { c.MaxViolations = 0 }, "piranha-mc: -max-violations must be at least 1"},
		{func(c *mcheck.Config) { c.MaxDepth = -1 }, "piranha-mc: -depth must be 0 (no bound) or positive"},
		{func(c *mcheck.Config) { c.MaxStates = mcheck.MaxStatesLimit + 1 }, "piranha-mc: -max-states must be at most 1073741824"},
		{func(c *mcheck.Config) { c.MaxOps = 256 }, "piranha-mc: -ops must be at most 255"},
		{func(c *mcheck.Config) { c.TSRFEntries = 256 }, "piranha-mc: -tsrf must be at most 255"},

		{func(c *mcheck.Config) {}, ""},
		{func(c *mcheck.Config) { c.MaxDepth = 3 }, ""},
		{func(c *mcheck.Config) { c.MaxStates = mcheck.MaxStatesLimit }, ""},
		{func(c *mcheck.Config) { c.MaxOps, c.MaxStates, c.TSRFEntries = 1, 1, 1 }, ""},
		{func(c *mcheck.Config) { c.MaxOps, c.TSRFEntries = mcheck.MaxOpsLimit, mcheck.TSRFEntriesLimit }, ""},
	}
	for i, c := range cases {
		cfg := ok
		c.set(&cfg)
		if got := budgetError(cfg); got != c.want {
			t.Errorf("case %d (%+v): got %q, want %q", i, cfg, got, c.want)
		}
	}
}
