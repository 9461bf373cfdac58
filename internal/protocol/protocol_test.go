package protocol

import (
	"strings"
	"testing"

	"piranha/internal/directory"
	"piranha/internal/l2"
)

func TestPiranhaRegisteredAndValid(t *testing.T) {
	spec, ok := Lookup("piranha")
	if !ok {
		t.Fatal("piranha spec not registered")
	}
	if err := spec.Table.Validate(); err != nil {
		t.Fatalf("registered table invalid: %v", err)
	}
	if len(spec.Files) == 0 {
		t.Fatal("spec names no files for lint")
	}
	if spec.StateName != "State" || spec.MsgName != "Kind" {
		t.Fatalf("unexpected enum names: %q/%q", spec.StateName, spec.MsgName)
	}
}

// Piranha is the only protocol: any other name, the empty one and a
// case variant included, is not found.
func TestLookupRejectsUnknownName(t *testing.T) {
	for _, name := range []string{"", "dash", "Piranha", "piranha "} {
		if s, ok := Lookup(name); ok || s.Table != nil {
			t.Errorf("Lookup(%q) = (%q, %v), want not found", name, s.Name, ok)
		}
	}
}

// Lookup reads the spec built at package initialization: it neither
// rebuilds nor revalidates the table, so a call allocates nothing.
func TestLookupAllocatesNothing(t *testing.T) {
	first, _ := Lookup("piranha")
	allocs := testing.AllocsPerRun(1000, func() {
		if s, ok := Lookup("piranha"); !ok || s.Table != first.Table {
			t.Fatal("Lookup returned a different table")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup(\"piranha\") allocates %.1f objects per call", allocs)
	}
}

func TestMatchAndWildcards(t *testing.T) {
	tab := Piranha()
	// The three-hop read: directory exclusive elsewhere. The busy-engine
	// deferral rule precedes the service rule in dispatch order.
	rules := tab.Match(directory.Exclusive, LineInvalid, MsgReq, l2.Read)
	if len(rules) != 2 || rules[0].Name != "q-defer" || rules[1].Name != "q-read-owned" {
		t.Fatalf("Match(E, I, req, read) = %v, want [q-defer q-read-owned]", names(rules))
	}
	if rules[1].When != GOwnerNotReq {
		t.Fatalf("q-read-owned guard = %v, want owner-not-req", rules[1].When)
	}
	// Invalidations are keyed by line kind; an invalid line carries the
	// racing-fill refinement ahead of the plain absorb.
	for _, c := range []struct {
		line LineKind
		want int
	}{{LineInvalid, 2}, {LineShared, 1}, {LineExclusive, 1}} {
		if got := tab.Match(directory.Exclusive, c.line, MsgInval, l2.Read); len(got) != c.want {
			t.Fatalf("Match(inval, line=%v) = %v, want %d rules", c.line, names(got), c.want)
		}
	}
	// The owner==requester residual is a declared hole.
	if _, ok := tab.Unreachable(directory.Exclusive, LineInvalid, MsgReq, l2.ReadEx); !ok {
		t.Fatal("owner==requester residual not declared unreachable")
	}
	// Replies with no transaction outstanding are a declared hole.
	if _, ok := tab.Unreachable(directory.Uncached, LineShared, MsgReply, l2.Read); !ok {
		t.Fatal("unsolicited reply not declared unreachable")
	}
}

func TestWantsExclusiveAndReplyData(t *testing.T) {
	cases := []struct {
		kind l2.Kind
		excl bool
		data bool
	}{
		{l2.Read, false, true},
		{l2.ReadEx, true, true},
		{l2.Upgrade, true, false},
		{l2.ReadExNoData, true, false},
	}
	for _, c := range cases {
		if got := WantsExclusive(c.kind); got != c.excl {
			t.Errorf("WantsExclusive(%v) = %v, want %v", c.kind, got, c.excl)
		}
		if got := ReplyCarriesData(c.kind); got != c.data {
			t.Errorf("ReplyCarriesData(%v) = %v, want %v", c.kind, got, c.data)
		}
	}
}

func TestValidateRejectsBrokenTables(t *testing.T) {
	// A rule removed without a hole declared: coverage gap.
	tab := Piranha()
	tab.Rules = without(tab.Rules, "i-shared")
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "no rule or hole") {
		t.Fatalf("dropping i-shared: err = %v, want coverage gap", err)
	}

	// A hole whose every combination is unconditionally covered: stale.
	tab = Piranha()
	tab.Holes = append(tab.Holes, Hole{
		Dir: DirAny, Line: LineShared, Msg: MsgInval, Req: ReqAny,
		Reason: "stale by construction",
	})
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "stale hole") {
		t.Fatalf("stale hole: err = %v, want stale-hole error", err)
	}

	// Duplicate rule names would make counterexamples ambiguous.
	tab = Piranha()
	tab.Rules = append(tab.Rules, tab.Rules[0])
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate rule name") {
		t.Fatalf("duplicate name: err = %v, want duplicate-name error", err)
	}

	// An empty action list is a typo, not a protocol decision.
	tab = Piranha()
	tab.Rules[0].Do = nil
	if err := tab.Validate(); err == nil || !strings.Contains(err.Error(), "no actions") {
		t.Fatalf("empty actions: err = %v, want no-actions error", err)
	}
}

func TestMutationsStillValidate(t *testing.T) {
	pristine := Piranha()
	for _, m := range Mutations() {
		mutated := m.Apply()
		if err := mutated.Validate(); err != nil {
			t.Errorf("mutation %s breaks static validation (%v); the self-test needs bugs only the checker can see", m.Name, err)
		}
		if m.Expect == "" {
			t.Errorf("mutation %s declares no expected invariant", m.Name)
		}
		if tablesEqual(pristine, mutated) {
			t.Errorf("mutation %s left the table unchanged", m.Name)
		}
	}
	// Catalog lookup round-trips.
	if _, ok := MutationByName("drop-inval-ack"); !ok {
		t.Error("MutationByName misses a catalog entry")
	}
	if _, ok := MutationByName("no-such-bug"); ok {
		t.Error("MutationByName invents entries")
	}
}

func TestMutationsDoNotAliasPristine(t *testing.T) {
	m, _ := MutationByName("missing-tsrf-release")
	mutated := m.Apply()
	fresh := Piranha()
	if tablesEqual(fresh, mutated) {
		t.Fatal("Apply returned an unmutated table")
	}
	if !tablesEqual(fresh, Piranha()) {
		t.Fatal("mutation leaked into freshly built tables")
	}
	spec, _ := Lookup("piranha")
	if !tablesEqual(fresh, spec.Table) {
		t.Fatal("mutation leaked into the registered table")
	}
}

func TestStringersTotal(t *testing.T) {
	for o := Op(0); o < NOps; o++ {
		if s := o.String(); s == "" || s == "?" {
			t.Errorf("Op(%d) has no name", o)
		}
	}
	for g := Guard(0); g < NGuards; g++ {
		if s := g.String(); s == "?" {
			t.Errorf("Guard(%d) has no name", g)
		}
	}
	for k := MsgKind(0); k < NMsgKinds; k++ {
		if s := k.String(); s == "?" {
			t.Errorf("MsgKind(%d) has no name", k)
		}
	}
	for k := LineKind(0); k < NLineKinds; k++ {
		if s := k.String(); s == "?" {
			t.Errorf("LineKind(%d) has no name", k)
		}
	}
	for _, r := range []Role{RoleAny, RoleHome, RoleRemote} {
		if r.String() == "?" {
			t.Errorf("Role(%d) has no name", r)
		}
	}
	for _, req := range RequestKinds {
		if KindSlug(req) == "" {
			t.Errorf("KindSlug(%v) empty", req)
		}
	}
}

func names(rules []Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name
	}
	return out
}

func without(rules []Rule, name string) []Rule {
	var out []Rule
	for _, r := range rules {
		if r.Name != name {
			out = append(out, r)
		}
	}
	return out
}

func tablesEqual(a, b *Table) bool {
	if len(a.Rules) != len(b.Rules) || len(a.Holes) != len(b.Holes) {
		return false
	}
	for i := range a.Rules {
		ra, rb := a.Rules[i], b.Rules[i]
		if ra.Name != rb.Name || ra.Dir != rb.Dir || ra.Line != rb.Line ||
			ra.Msg != rb.Msg || ra.Req != rb.Req || ra.When != rb.When ||
			ra.Role != rb.Role || len(ra.Do) != len(rb.Do) {
			return false
		}
		for j := range ra.Do {
			if ra.Do[j] != rb.Do[j] {
				return false
			}
		}
	}
	return true
}
