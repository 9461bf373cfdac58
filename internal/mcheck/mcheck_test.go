package mcheck

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"piranha/internal/l2"
	"piranha/internal/protocol"
)

// The headline claim: the shipped protocol's full 2-node state space is
// exhausted with zero violations. Every reachable interleaving of
// requests, forwards, invalidations, replies and writebacks at the
// default operation budget is visited.
func TestTwoNodeExhaustiveClean(t *testing.T) {
	res := Check(protocol.Piranha(), Config{Nodes: 2})
	if !res.Exhausted {
		t.Fatalf("2-node exploration not exhausted: %d states, depth %d", res.States, res.Depth)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("2-node exploration found violations: %+v", res.Violations)
	}
	checkSpace(t, res, 1_924, 3_848, 14)
}

// checkSpace pins an exhausted exploration's size. The counts move only
// when the protocol table or the explorer's visited-set semantics change;
// a drift here is either a deliberate table edit or states being merged
// (or split) by the canonical key.
func checkSpace(t *testing.T, res *Result, states, transitions, depth int) {
	t.Helper()
	if res.States != states || res.Transitions != transitions || res.Depth != depth {
		t.Fatalf("%d-node exploration: states/transitions/depth = %d/%d/%d, want %d/%d/%d",
			res.Nodes, res.States, res.Transitions, res.Depth, states, transitions, depth)
	}
}

// Larger micro-systems exercise the races a 2-node system cannot: a
// third party's invalidation overtaking an in-flight fill, forwards
// racing sharing writebacks, stale writebacks under forwarded
// ownership.
func TestThreeAndFourNodeExhaustiveClean(t *testing.T) {
	for _, c := range []struct{ nodes, states, transitions, depth int }{
		{3, 33_225, 85_658, 21},
		{4, 283_621, 878_389, 23},
	} {
		res := Check(protocol.Piranha(), Config{Nodes: c.nodes})
		if !res.Exhausted {
			t.Fatalf("%d-node exploration not exhausted: %d states", c.nodes, res.States)
		}
		if len(res.Violations) != 0 {
			v := res.Violations[0]
			t.Fatalf("%d-node exploration: %s: %s\ntrace: %v", c.nodes, v.Invariant, v.Detail, v.Trace)
		}
		checkSpace(t, res, c.states, c.transitions, c.depth)
	}
}

// One operation past the default budget the shipped table has known
// races (ROADMAP item 1), so these exhaustive runs admit violations and
// run the report path at scale, counterexamples rendered from the
// scratch successor included. The counts pin today's table, bugs and
// all; the change that fixes the table updates them.
func TestRaisedBudgetSpaces(t *testing.T) {
	for _, c := range []struct{ nodes, ops, states, transitions, depth, violations int }{
		{2, 5, 4_697, 9_869, 16, 30},
		{2, 6, 9_883, 21_509, 18, 81},
		{3, 5, 153_033, 433_552, 25, 778},
		{3, 6, 575_500, 1_750_235, 30, 5_216},
	} {
		res := Check(protocol.Piranha(), Config{Nodes: c.nodes, MaxOps: c.ops, MaxViolations: 1_000_000})
		if !res.Exhausted {
			t.Fatalf("%d nodes, %d ops: not exhausted: %d states", c.nodes, c.ops, res.States)
		}
		checkSpace(t, res, c.states, c.transitions, c.depth)
		if len(res.Violations) != c.violations {
			t.Errorf("%d nodes, %d ops: %d violations, want %d", c.nodes, c.ops, len(res.Violations), c.violations)
		}
	}
}

// Exploration allocates only when an array grows, an arena chunk or a
// page opens, or a chunk of states goes to the helpers (one goroutine
// each): keys go into the visited set's arena chunks, successors are
// value copies in each expander's scratch state and the rule index is
// built once per Check, so neither a transition nor a new state
// allocates in the common case.
func TestExplorationAllocatesPerState(t *testing.T) {
	var states int
	allocs := testing.AllocsPerRun(1, func() {
		states = Check(protocol.Piranha(), Config{Nodes: 3}).States
	})
	if perState := allocs / float64(states); perState > 0.05 {
		t.Fatalf("a 3-node check allocates %.0f objects for %d states (%.3f per state, want at most 0.05)",
			allocs, states, perState)
	}
}

// The calling goroutine and GOMAXPROCS−1 helpers claim pieces of each
// chunk in whatever order their timing gives, yet a check's Result does
// not depend on how many there are or on who expanded what: at GOMAXPROCS
// 1, 2 and 4, even on a host with fewer CPUs, each case gives the same
// Result, rule fires and counterexample traces included, and its JSON
// digest is the one the one-state-at-a-time search gave. The cases end
// every way a check can: exhausted, at the violation budget (partway
// through a chunk for 3 nodes, 5 operations and one violation), at the
// state cap and at the depth bound.
func TestResultIndependentOfWorkers(t *testing.T) {
	type input struct {
		name   string
		table  *protocol.Table
		cfg    Config
		digest string
	}
	all := 1_000_000
	cases := []input{
		{"2 nodes", protocol.Piranha(), Config{Nodes: 2}, "9975dc847acb88cd"},
		{"3 nodes", protocol.Piranha(), Config{Nodes: 3}, "dd2f9b68440d9f0e"},
		{"2 nodes, 5 ops", protocol.Piranha(), Config{Nodes: 2, MaxOps: 5, MaxViolations: all}, "4ac03e3d39dcc613"},
		{"3 nodes, 5 ops", protocol.Piranha(), Config{Nodes: 3, MaxOps: 5, MaxViolations: all}, "4f40f94ddaa90c93"},
		{"3 nodes, 5 ops, first violation", protocol.Piranha(), Config{Nodes: 3, MaxOps: 5, MaxViolations: 1}, "d0e44a1dd3fcec51"},
		{"3 nodes, 5000 states", protocol.Piranha(), Config{Nodes: 3, MaxStates: 5000}, "3e665fe87cb825c9"},
		{"3 nodes, depth 7", protocol.Piranha(), Config{Nodes: 3, MaxDepth: 7}, "632954393cd49da8"},
	}
	mutants := map[string]string{
		"drop-inval-ack":       "1173194d993c3236",
		"wrong-reply-kind":     "19fc1065804fe08b",
		"missing-tsrf-release": "8dd921bcca7e9e6a",
		"missing-dir-clear":    "f8d803810f23dc9a",
	}
	for _, m := range protocol.Mutations() {
		cases = append(cases, input{m.Name + " at 3 nodes", m.Apply(), Config{Nodes: 3, MaxViolations: 5}, mutants[m.Name]})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		runtime.GOMAXPROCS(1)
		one := Check(c.table, c.cfg)
		same := true
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			if more := Check(c.table, c.cfg); !reflect.DeepEqual(one, more) {
				t.Errorf("%s: results differ between GOMAXPROCS 1 and %d: %d/%d/%d states/transitions/violations, then %d/%d/%d",
					c.name, procs, one.States, one.Transitions, len(one.Violations), more.States, more.Transitions, len(more.Violations))
				same = false
			}
		}
		if !same {
			continue
		}
		b, err := json.Marshal(one)
		if err != nil {
			t.Fatal(err)
		}
		if d := fmt.Sprintf("%x", sha256.Sum256(b))[:16]; d != c.digest {
			t.Errorf("%s: result digest %s (%d states, %d transitions, %d violations), want %s",
				c.name, d, one.States, one.Transitions, len(one.Violations), c.digest)
		}
	}
}

// The rule index hands a delivery or a spontaneous operation exactly the
// rules the table's key match accepts: for every message kind, directory
// state, line kind and request kind, the index cell filtered by request
// kind is Table.Match's answer, in table order, for the shipped table and
// every mutant.
func TestRuleIndexMatchesTable(t *testing.T) {
	if nDirStates != len(protocol.DirStates) {
		t.Fatalf("nDirStates = %d, protocol lists %d directory states", nDirStates, len(protocol.DirStates))
	}
	tables := []*protocol.Table{protocol.Piranha()}
	for _, m := range protocol.Mutations() {
		tables = append(tables, m.Apply())
	}
	reqs := []l2.Kind{l2.Read, l2.ReadEx, l2.Upgrade, l2.ReadExNoData, protocol.ReqAny}
	for ti, tab := range tables {
		idx := newRuleIndex(tab)
		for msg := range protocol.NMsgKinds {
			for _, dir := range protocol.DirStates {
				for line := range protocol.NLineKinds {
					for _, req := range reqs {
						var got, want []string
						for _, ri := range idx[msg][dir][line] {
							if r := &tab.Rules[ri]; r.Req == protocol.ReqAny || r.Req == req {
								got = append(got, r.Name)
							}
						}
						for _, r := range tab.Match(dir, line, msg, req) {
							want = append(want, r.Name)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("table %d, %v/%v/%v/%v: index gives %v, Table.Match %v", ti, msg, dir, line, req, got, want)
						}
					}
				}
			}
		}
	}
}

// A MaxStates the state numbers cannot hold is lowered to MaxStatesLimit;
// smaller caps and the default are kept.
func TestMaxStatesClamped(t *testing.T) {
	for _, c := range []struct{ set, want int }{
		{0, DefaultMaxStates},
		{50, 50},
		{MaxStatesLimit, MaxStatesLimit},
		{MaxStatesLimit + 1, MaxStatesLimit},
		{math.MaxInt, MaxStatesLimit},
	} {
		if got := (Config{MaxStates: c.set}).withDefaults().MaxStates; got != c.want {
			t.Errorf("MaxStates %d: withDefaults gives %d, want %d", c.set, got, c.want)
		}
	}
	res := Check(protocol.Piranha(), Config{Nodes: 2, MaxStates: math.MaxInt})
	if !res.Exhausted || res.States != 1_924 {
		t.Fatalf("a clamped cap: %d states, exhausted=%v; want the full 1,924-state space", res.States, res.Exhausted)
	}
}

// A MaxOps or TSRFEntries above 255 is lowered to its limit: the state
// keeps both counts in a byte, and a higher bound could never stop them
// from wrapping. The limits themselves and smaller bounds are kept.
func TestByteBudgetsClamped(t *testing.T) {
	for _, c := range []struct{ set, ops, tsrf int }{
		{0, DefaultMaxOps, DefaultTSRFEntries},
		{5, 5, 5},
		{255, 255, 255},
		{256, 255, 255},
		{math.MaxInt, 255, 255},
	} {
		cfg := Config{MaxOps: c.set, TSRFEntries: c.set}.withDefaults()
		if cfg.MaxOps != c.ops || cfg.TSRFEntries != c.tsrf {
			t.Errorf("MaxOps and TSRFEntries %d: withDefaults gives %d and %d, want %d and %d",
				c.set, cfg.MaxOps, cfg.TSRFEntries, c.ops, c.tsrf)
		}
	}
	if MaxOpsLimit != math.MaxUint8 || TSRFEntriesLimit != math.MaxUint8 {
		t.Fatalf("limits %d and %d, want the largest byte, %d", MaxOpsLimit, TSRFEntriesLimit, math.MaxUint8)
	}
}

// The state's arrays hold maxNodes nodes, so Check refuses a node count
// outside 2 to maxNodes with a panic that names the bound, raised in the
// calling goroutine before any helper starts.
func TestCheckRefusesNodeCount(t *testing.T) {
	for _, nodes := range []int{-1, 1, maxNodes + 1, 64} {
		before := runtime.NumGoroutine()
		msg := func() (msg string) {
			defer func() {
				if p := recover(); p != nil {
					msg = fmt.Sprint(p)
				}
			}()
			Check(protocol.Piranha(), Config{Nodes: nodes})
			return "no panic"
		}()
		if want := fmt.Sprintf("Config.Nodes is %d; a check explores 2 to %d nodes", nodes, maxNodes); !strings.Contains(msg, want) {
			t.Errorf("Nodes %d: Check panics with %q, want it to name the bound (%q)", nodes, msg, want)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("Nodes %d: %d goroutines before the refused check, %d after", nodes, before, after)
		}
	}
}

// Exploration is deterministic: two runs agree on every count and on
// the byte-level JSON encoding of the full result.
func TestDeterministicExploration(t *testing.T) {
	a := Check(protocol.Piranha(), Config{Nodes: 3})
	b := Check(protocol.Piranha(), Config{Nodes: 3})
	if a.States != b.States || a.Transitions != b.Transitions || a.Depth != b.Depth {
		t.Fatalf("runs disagree: %d/%d/%d vs %d/%d/%d",
			a.States, a.Transitions, a.Depth, b.States, b.Transitions, b.Depth)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("identical explorations produced different JSON")
	}
}

// The operation budget and depth bound are honored, and a bounded run
// says so instead of claiming exhaustion.
func TestBoundsReported(t *testing.T) {
	res := Check(protocol.Piranha(), Config{Nodes: 2, MaxDepth: 3})
	if res.Exhausted {
		t.Fatal("depth-bounded run claims exhaustion")
	}
	if res.Depth > 3 {
		t.Fatalf("depth bound ignored: reached %d", res.Depth)
	}
	// The state cap is checked between expansions, so it may overshoot
	// by one state's successors — it is a safety valve, not an exact
	// budget.
	res = Check(protocol.Piranha(), Config{Nodes: 2, MaxStates: 50})
	if res.Exhausted || res.States < 50 || res.States > 100 {
		t.Fatalf("state bound ignored: %d states, exhausted=%v", res.States, res.Exhausted)
	}
}

// Every rule that fires is counted; the count list is sorted and covers
// the whole table, and on an exhausted 2-node run the core service
// rules all fired.
func TestRuleFireAccounting(t *testing.T) {
	res := Check(protocol.Piranha(), Config{Nodes: 2})
	tab := protocol.Piranha()
	if len(res.RuleFires) != len(tab.Rules) {
		t.Fatalf("RuleFires covers %d rules, table has %d", len(res.RuleFires), len(tab.Rules))
	}
	fired := map[string]int{}
	for i, rc := range res.RuleFires {
		if i > 0 && res.RuleFires[i-1].Rule >= rc.Rule {
			t.Fatalf("RuleFires unsorted at %q", rc.Rule)
		}
		fired[rc.Rule] = rc.Fires
	}
	for _, core := range []string{"issue-read", "issue-write", "q-read-uncached", "q-write-uncached",
		"recv-reply", "w-owner", "wb-done", "i-shared", "a-gather", "h-write-shared"} {
		if fired[core] == 0 {
			t.Errorf("core rule %s never fired in an exhausted 2-node run", core)
		}
	}
}

// The mutation self-test: each cataloged protocol bug is detected with
// its documented invariant and a non-empty counterexample. This is the
// checker checking itself — a bug class it stops seeing is a
// regression in the checker, not a cleaner protocol.
func TestMutationsDetected(t *testing.T) {
	results := SelfTest(Config{Nodes: 2, MaxViolations: 4})
	if len(results) != len(protocol.Mutations()) {
		t.Fatalf("self-test ran %d mutations, catalog has %d", len(results), len(protocol.Mutations()))
	}
	for _, r := range results {
		if !r.Detected {
			t.Errorf("mutation %s: expected invariant %s not detected (found %v)",
				r.Mutation, r.Expect, r.Found)
			continue
		}
		if r.Depth == 0 {
			t.Errorf("mutation %s: counterexample has no steps", r.Mutation)
		}
	}
}

// A violation exports as a deterministic Chrome trace whose spans carry
// the rule names, so the counterexample is inspectable in Perfetto.
func TestCounterexampleExport(t *testing.T) {
	m, ok := protocol.MutationByName("wrong-reply-kind")
	if !ok {
		t.Fatal("mutation catalog lost wrong-reply-kind")
	}
	res := Check(m.Apply(), Config{Nodes: 2})
	if len(res.Violations) == 0 {
		t.Fatal("mutation produced no violation")
	}
	v := res.Violations[0]
	var a, b bytes.Buffer
	if err := WriteCounterexample(&a, "piranha", v); err != nil {
		t.Fatal(err)
	}
	if err := WriteCounterexample(&b, "piranha", v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("counterexample export is nondeterministic")
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var sawRule, sawViolation bool
	for _, e := range doc.TraceEvents {
		if strings.HasPrefix(e.Name, "violation:") {
			sawViolation = true
		}
		if e.Name == v.Trace[len(v.Trace)-1].Rule {
			sawRule = true
		}
	}
	if !sawViolation || !sawRule {
		t.Fatalf("export missing violation marker or rule spans (violation=%v rule=%v)", sawViolation, sawRule)
	}
}

// Violations surface in piranha-vet's diagnostic shape, anchored at the
// protocol's table file with the invariant as the analyzer name.
func TestDiagnostics(t *testing.T) {
	m, _ := protocol.MutationByName("missing-tsrf-release")
	res := Check(m.Apply(), Config{Nodes: 2})
	spec, _ := protocol.Lookup("piranha")
	diags := res.Diagnostics(spec)
	if len(diags) != len(res.Violations) {
		t.Fatalf("%d diagnostics for %d violations", len(diags), len(res.Violations))
	}
	d := diags[0]
	if d.File != spec.Files[0] {
		t.Errorf("diagnostic anchored at %q, want %q", d.File, spec.Files[0])
	}
	if d.Analyzer != "mcheck/"+InvTSRFLeak {
		t.Errorf("analyzer = %q, want mcheck/%s", d.Analyzer, InvTSRFLeak)
	}
	if !strings.Contains(d.Message, "counterexample depth") {
		t.Errorf("message lacks counterexample depth: %q", d.Message)
	}
	// A clean result yields no diagnostics.
	clean := Check(protocol.Piranha(), Config{Nodes: 2})
	if diags := clean.Diagnostics(spec); len(diags) != 0 {
		t.Errorf("clean run produced diagnostics: %v", diags)
	}
}

// The directory codec is exercised on every directory write during
// exploration: a 4-node run visits entries through Encode/Decode for
// every sharer-set shape the protocol can produce.
func TestExplorationRoundTripsCodec(t *testing.T) {
	res := Check(protocol.Piranha(), Config{Nodes: 4, MaxOps: 3})
	for _, v := range res.Violations {
		if v.Invariant == InvCodec {
			t.Fatalf("directory codec violation: %s", v.Detail)
		}
	}
}

// BenchmarkCheck times one exhaustive exploration of the shipped table
// at 3 and 4 nodes and reports the explored states per op, so
// allocs/op and ns/op read directly as per-check bookkeeping cost.
func BenchmarkCheck(b *testing.B) {
	for _, n := range []int{3, 4} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			tab := protocol.Piranha()
			b.ReportAllocs()
			b.ResetTimer()
			var states int
			for i := 0; i < b.N; i++ {
				states = Check(tab, Config{Nodes: n}).States
			}
			b.ReportMetric(float64(states), "states/op")
		})
	}
}
