package mcheck

import (
	"fmt"
	"sort"

	"piranha/internal/directory"
	"piranha/internal/protocol"
)

// Config bounds one exploration.
type Config struct {
	// Nodes is the micro-system size (2..4); node 0 is the home.
	Nodes int
	// MaxOps bounds the processor operations (issues and write hits)
	// any single trace may consume; evictions ride free, so the
	// reachable space is finite.
	MaxOps int
	// MaxDepth bounds the BFS depth; 0 explores to exhaustion.
	MaxDepth int
	// MaxStates is a safety valve on the visited set; 0 selects the
	// default, and a value above MaxStatesLimit is lowered to it.
	MaxStates int
	// TSRFEntries is the per-node occupancy bound the checker enforces.
	TSRFEntries int
	// MaxViolations stops the search after this many findings (default 1).
	MaxViolations int

	dcfg directory.Config
}

// Defaults for zero Config fields.
const (
	DefaultMaxOps      = 4
	DefaultMaxStates   = 4_000_000
	DefaultTSRFEntries = 4
)

// MaxStatesLimit is the largest MaxStates a check honours. State numbers
// are int32, and the state cap is checked between expansions, so a run
// may pass it by one state's successors; half the int32 range leaves far
// more room than that.
const MaxStatesLimit = 1 << 30

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.MaxOps == 0 {
		c.MaxOps = DefaultMaxOps
	}
	if c.MaxStates == 0 {
		c.MaxStates = DefaultMaxStates
	}
	c.MaxStates = min(c.MaxStates, MaxStatesLimit)
	if c.TSRFEntries == 0 {
		c.TSRFEntries = DefaultTSRFEntries
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 1
	}
	c.dcfg = directory.Config{Nodes: c.Nodes}
	return c
}

// Step is one transition of a counterexample trace.
type Step struct {
	Actor int    `json:"actor"`
	Kind  string `json:"kind"` // "deliver" or "op"
	Rule  string `json:"rule"`
	Msg   string `json:"msg,omitempty"`
	State string `json:"state"`
}

// Violation is one invariant failure with its minimal (BFS-shortest)
// counterexample from the initial state.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	Rule      string `json:"rule,omitempty"`
	Depth     int    `json:"depth"`
	Trace     []Step `json:"trace"`
}

// RuleCount reports how often a rule fired across the exploration.
type RuleCount struct {
	Rule  string `json:"rule"`
	Fires int    `json:"fires"`
}

// Result summarizes one exploration.
type Result struct {
	Protocol    string `json:"protocol"`
	Nodes       int    `json:"nodes"`
	MaxOps      int    `json:"max_ops"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Depth       int    `json:"depth"`
	// Exhausted is true when the frontier emptied within every bound:
	// the reported state count is the complete reachable space.
	Exhausted  bool        `json:"exhausted"`
	Violations []Violation `json:"violations"`
	// RuleFires counts firings per rule, sorted by rule name. Rules
	// with zero fires are listed too: a never-fired rule is dead table
	// weight worth knowing about.
	RuleFires []RuleCount `json:"rule_fires"`
}

// Transition kinds a record can carry.
const (
	viaInit uint8 = iota
	viaDeliver
	viaOp
)

// transition is the compact form of the step that produced a state: the
// acting node, the fired rule and, for a delivery, the consumed message.
// Its Step text is rendered only when a counterexample is reported.
type transition struct {
	kind  uint8
	actor uint8
	rule  uint16 // index into the table's rules
	m     msg    // delivered message (viaDeliver only)
}

// record is one visited state's BFS parent, for counterexample
// reconstruction. The state itself is stored only as its canonical key,
// in the visited set under the same state number.
type record struct {
	parent int32
	depth  int32
	via    transition
}

// nDirStates is the number of directory states, directory.Uncached
// through directory.Exclusive.
const nDirStates = int(directory.Exclusive) + 1

// ruleIndex lists, per message kind, directory state and line kind, the
// table indices of the rules whose key matches that directory state and
// line kind, in table order; a DirAny or LineAny rule is in every cell
// it matches. Rule.Req is left to the caller. Table order keeps the
// first matching rule the table's; ruleIndex[MsgNone] holds the
// spontaneous rules.
type ruleIndex [protocol.NMsgKinds][nDirStates][protocol.NLineKinds][]uint16

// newRuleIndex indexes a table's rules.
func newRuleIndex(t *protocol.Table) *ruleIndex {
	idx := new(ruleIndex)
	for i := range t.Rules {
		r := &t.Rules[i]
		for d := range nDirStates {
			for l := range protocol.NLineKinds {
				if (r.Dir == protocol.DirAny || r.Dir == directory.State(d)) &&
					(r.Line == protocol.LineAny || r.Line == l) {
					idx[r.Msg][d][l] = append(idx[r.Msg][d][l], uint16(i))
				}
			}
		}
	}
	return idx
}

// explorer runs one bounded BFS.
type explorer struct {
	cfg       Config
	table     *protocol.Table
	states    []record   // per state number, its BFS parent
	visited   visitedSet // per state number, its canonical key
	result    *Result
	fires     []int // firings per rule, by table index
	rules     *ruleIndex
	consuming []bool // per rule, by table index: opConsuming
	// cur is the state being expanded, decoded from its visited key and
	// reused for every expansion; entry is its directory, decoded once
	// per expansion. Every successor is built in next, which owns its
	// channel arrays and is overwritten by the next successor.
	cur    state
	entry  directory.Entry
	next   state
	keyBuf []byte // reused buffer successor keys are built in (see admit)
}

// Check explores the table's reachable state space under cfg and
// reports violations with counterexamples. Exploration is fully
// deterministic: successor enumeration, state hashing, and violation
// order depend only on the table and config.
func Check(table *protocol.Table, cfg Config) *Result {
	return explore(table, cfg).result
}

// explore runs one exploration and returns the explorer, visited
// records included, with its result filled in.
func explore(table *protocol.Table, cfg Config) *explorer {
	cfg = cfg.withDefaults()
	e := &explorer{
		cfg:   cfg,
		table: table,
		result: &Result{
			Nodes:  cfg.Nodes,
			MaxOps: cfg.MaxOps,
		},
		fires: make([]int, len(table.Rules)),
		rules: newRuleIndex(table),
	}
	for i := range table.Rules {
		e.consuming = append(e.consuming, opConsuming(&table.Rules[i]))
	}
	e.run()
	e.result.States = len(e.states)
	// Table.Validate keeps rule names unique, so the name order is total.
	for i, r := range table.Rules {
		e.result.RuleFires = append(e.result.RuleFires, RuleCount{Rule: r.Name, Fires: e.fires[i]})
	}
	sort.Slice(e.result.RuleFires, func(i, j int) bool {
		return e.result.RuleFires[i].Rule < e.result.RuleFires[j].Rule
	})
	return e
}

func (e *explorer) run() {
	init := state{}
	bits, err := directory.Encode(e.cfg.dcfg, directory.Clear())
	if err != nil {
		e.result.Violations = append(e.result.Violations, Violation{
			Invariant: InvCodec, Detail: err.Error()})
		return
	}
	init.dir = bits
	e.visited.add(init.appendKey(nil, e.cfg.Nodes))
	e.states = append(e.states, record{parent: -1, via: transition{kind: viaInit}})

	exhausted := true
	for head := 0; head < len(e.states); head++ {
		cur := int32(head)
		depth := e.states[head].depth
		if int(depth) > e.result.Depth {
			e.result.Depth = int(depth)
		}
		e.cur.decode(e.visited.key(cur), e.cfg.Nodes)
		// State invariants hold at every reachable configuration.
		if v, ok := e.checkStateInvariants(&e.cur); ok {
			e.report(cur, depth, v, Step{})
			if len(e.result.Violations) >= e.cfg.MaxViolations {
				return
			}
			continue
		}
		if e.cfg.MaxDepth > 0 && int(depth) >= e.cfg.MaxDepth {
			exhausted = false
			continue
		}
		enabled, stop := e.expand(cur, depth)
		if stop {
			return
		}
		if !enabled && !e.cur.quiescent(e.cfg.Nodes) {
			e.report(cur, depth, &violationErr{InvDeadlock,
				"messages in flight but no rule is enabled at any node"}, Step{})
			if len(e.result.Violations) >= e.cfg.MaxViolations {
				return
			}
		}
		if len(e.states) >= e.cfg.MaxStates {
			exhausted = false
			break
		}
	}
	e.result.Exhausted = exhausted
}

// expand generates all successors of state cur in deterministic order:
// message deliveries (src-major, dst-minor), then spontaneous
// processor operations (node-major, table-order minor). It reports
// whether any transition was enabled and whether the search must stop.
func (e *explorer) expand(cur int32, depth int32) (enabled, stop bool) {
	n := e.cfg.Nodes
	e.entry = directory.Decode(e.cfg.dcfg, e.cur.dir)
	// Deliveries.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || len(e.cur.chans[src][dst]) == 0 {
				continue
			}
			m := e.cur.chans[src][dst][0]
			fired, delayed, stop := e.deliver(cur, depth, dst, m)
			if stop {
				return enabled, true
			}
			if fired && !delayed {
				enabled = true
			}
		}
	}
	// Spontaneous operations.
	for node := 0; node < n; node++ {
		for _, ri := range e.rules[protocol.MsgNone][e.entry.State][e.cur.nodes[node].line] {
			if fired, stop := e.spontaneous(cur, depth, node, ri); stop {
				return enabled, true
			} else if fired {
				enabled = true
			}
		}
	}
	return enabled, false
}

// deliver pops the head of channel (m.src → dst) and fires the first
// key- and guard-matching rule.
func (e *explorer) deliver(cur int32, depth int32, dst int, m msg) (fired, delayed, stop bool) {
	st, entry := &e.cur, &e.entry
	line := st.nodes[dst].line

	for _, ri := range e.rules[m.kind][entry.State][line] {
		r := &e.table.Rules[ri]
		if !roleOK(r, dst) || (r.Req != protocol.ReqAny && r.Req != m.req) {
			continue
		}
		in := interp{cfg: &e.cfg, st: st, rule: r, act: dst, m: &m, entry: entry,
			requester: receptionRequester(m), reqKind: m.req}
		if !in.guardHolds() {
			continue
		}
		// The first matching rule fires on the scratch successor.
		next := &e.next
		next.copyFrom(st)
		ch := next.chans[m.src][dst]
		next.chans[m.src][dst] = ch[:copy(ch, ch[1:])]
		in.st = next
		wasDelayed, err := in.run()
		e.fires[ri]++
		if wasDelayed {
			return true, true, false
		}
		via := transition{kind: viaDeliver, actor: uint8(dst), rule: ri, m: m}
		if err != nil {
			return true, false, e.reportErr(cur, depth+1, err, e.renderStep(via, next))
		}
		e.admit(cur, depth, next, via)
		return true, false, false
	}

	// No rule accepts the reception: either a declared hole was reached
	// (the table's unreachability promise is broken) or the reception is
	// wholly unspecified — the configuration a NAKing protocol would
	// bounce, which this protocol promises never to need.
	step := Step{Actor: dst, Kind: "deliver", Rule: "(none)", Msg: m.String(),
		State: st.summary(e.cfg.Nodes, e.cfg.dcfg)}
	if reason, ok := e.table.Unreachable(entry.State, line, m.kind, m.req); ok {
		return false, false, e.reportErr(cur, depth+1, &violationErr{InvReachedHole,
			fmt.Sprintf("declared-unreachable reception %v at node %d (dir=%v line=%v): %s",
				m.kind, dst, entry.State, line, reason)}, step)
	}
	return false, false, e.reportErr(cur, depth+1, &violationErr{InvUnspecified,
		fmt.Sprintf("no rule for %v at node %d (dir=%v line=%v req=%v) — a NAK would be required",
			m.kind, dst, entry.State, line, m.req)}, step)
}

// spontaneous fires one processor-side rule, taken from the index cell
// of the node's directory state and line, at a node if its role, guard
// and the operation budget allow.
func (e *explorer) spontaneous(cur int32, depth int32, node int, ri uint16) (fired, stop bool) {
	st, r := &e.cur, &e.table.Rules[ri]
	consuming := e.consuming[ri]
	if consuming && int(st.ops) >= e.cfg.MaxOps {
		return false, false
	}
	if !roleOK(r, node) {
		return false, false
	}
	in := interp{cfg: &e.cfg, st: st, rule: r, act: node, entry: &e.entry,
		requester: uint8(node), reqKind: r.Req}
	if !in.guardHolds() {
		return false, false
	}
	next := &e.next
	next.copyFrom(st)
	if consuming {
		next.ops++
	}
	in.st = next
	_, err := in.run()
	e.fires[ri]++
	via := transition{kind: viaOp, actor: uint8(node), rule: ri}
	if err != nil {
		return true, e.reportErr(cur, depth+1, err, e.renderStep(via, next))
	}
	e.admit(cur, depth, next, via)
	return true, false
}

// admit records a successor state if it is new. Its key is built in the
// reused key buffer; the visited set copies it into its arena only when
// the state is new.
func (e *explorer) admit(parent int32, depth int32, next *state, via transition) {
	e.result.Transitions++
	e.keyBuf = next.appendKey(e.keyBuf[:0], e.cfg.Nodes)
	if _, added := e.visited.add(e.keyBuf); added {
		e.states = append(e.states, record{parent: parent, depth: depth + 1, via: via})
	}
}

// roleOK checks a rule's placement restriction against the acting node.
func roleOK(r *protocol.Rule, node int) bool {
	switch r.Role {
	case protocol.RoleHome:
		return node == home
	case protocol.RoleRemote:
		return node != home
	}
	return true
}

// receptionRequester is the node a reply or ack must target.
func receptionRequester(m msg) uint8 {
	switch m.kind {
	case protocol.MsgReq, protocol.MsgFwd, protocol.MsgInval:
		return m.requester
	}
	return m.src
}

// opConsuming reports whether a spontaneous rule draws on the
// operation budget: issues (specific request kinds) and write hits do;
// evictions ride free, since each needs a preceding fill.
func opConsuming(r *protocol.Rule) bool {
	if r.Req != protocol.ReqAny {
		return true
	}
	for _, op := range r.Do {
		if op == protocol.OpWriteLocal {
			return true
		}
	}
	return false
}

// checkStateInvariants verifies the properties every reachable state
// must satisfy, beyond the per-transition checks the interpreter makes.
func (e *explorer) checkStateInvariants(st *state) (*violationErr, bool) {
	n := e.cfg.Nodes
	// Single-writer: at most one exclusive copy systemwide, and the
	// exclusive copy is the last written version. A node with a
	// writeback in flight has relinquished ownership — its held copy
	// exists only to serve early forwards (§3.5) and OpSupplyOwn checks
	// currency at serve time — so it does not count as a writer.
	exclusives := 0
	for i := 0; i < n; i++ {
		nd := &st.nodes[i]
		if nd.line == protocol.LineExclusive && !nd.wb {
			exclusives++
			if nd.val != st.cur {
				return &violationErr{InvStaleSupply,
					fmt.Sprintf("node %d holds the line exclusively at v%d but the last write is v%d", i, nd.val, st.cur)}, true
			}
		}
		if int(nd.tsrf) > e.cfg.TSRFEntries {
			return &violationErr{InvTSRFBound,
				fmt.Sprintf("node %d occupies %d TSRF entries (bound %d)", i, nd.tsrf, e.cfg.TSRFEntries)}, true
		}
		// No stale readable copy: a shared holder lagging the last write
		// must have its invalidation already in flight (the bounded
		// window weak ordering permits); a stale copy nobody is coming
		// for is a read of lost data.
		if nd.line == protocol.LineShared && nd.val != st.cur && !st.invalInFlightTo(n, i) {
			return &violationErr{InvStaleSharer,
				fmt.Sprintf("node %d holds a readable v%d copy after write v%d with no invalidation in flight", i, nd.val, st.cur)}, true
		}
	}
	if exclusives > 1 {
		return &violationErr{InvMultiWriter,
			fmt.Sprintf("%d nodes hold the line exclusively", exclusives)}, true
	}
	if !st.quiescent(n) {
		return nil, false
	}
	// Quiescent-state invariants: with no message in flight, every
	// transaction is settled.
	for i := 0; i < n; i++ {
		nd := &st.nodes[i]
		if nd.hasPend || nd.wb {
			return &violationErr{InvLostTransact,
				fmt.Sprintf("node %d waits forever: nothing in flight can resolve its transaction", i)}, true
		}
		if nd.acks > 0 {
			return &violationErr{InvAckAccount,
				fmt.Sprintf("node %d is owed %d invalidation acks that can never arrive", i, nd.acks)}, true
		}
		if nd.tsrf > 0 {
			return &violationErr{InvTSRFLeak,
				fmt.Sprintf("node %d holds %d TSRF entries with no transaction outstanding", i, nd.tsrf)}, true
		}
	}
	if exclusives == 0 && st.mem != st.cur {
		return &violationErr{InvMemStale,
			fmt.Sprintf("memory holds v%d, last write is v%d, and no exclusive copy exists", st.mem, st.cur)}, true
	}
	return nil, false
}

// report records a violation found *at* state cur (state invariant).
func (e *explorer) report(cur int32, depth int32, v *violationErr, extra Step) {
	e.result.Violations = append(e.result.Violations, Violation{
		Invariant: v.invariant,
		Detail:    v.detail,
		Depth:     int(depth),
		Trace:     e.tracePath(cur, extra),
	})
}

// reportErr records a violation found on a transition out of cur and
// reports whether the search should stop.
func (e *explorer) reportErr(cur int32, depth int32, err error, step Step) bool {
	v, ok := err.(*violationErr)
	if !ok {
		v = &violationErr{InvUnspecified, err.Error()}
	}
	e.result.Violations = append(e.result.Violations, Violation{
		Invariant: v.invariant,
		Detail:    v.detail,
		Rule:      step.Rule,
		Depth:     int(depth),
		Trace:     e.tracePath(cur, step),
	})
	return len(e.result.Violations) >= e.cfg.MaxViolations
}

// tracePath reconstructs the shortest path from the initial state,
// rendering each recorded step from its compact transition and decoded
// state, and appends the violating step when one exists.
func (e *explorer) tracePath(cur int32, extra Step) []Step {
	var rev []Step
	var st state
	for i := cur; i >= 0; i = e.states[i].parent {
		st.decode(e.visited.key(i), e.cfg.Nodes)
		rev = append(rev, e.renderStep(e.states[i].via, &st))
	}
	out := make([]Step, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	if extra.Kind != "" || extra.Rule != "" {
		out = append(out, extra)
	}
	return out
}

// renderStep renders a recorded transition and the state it produced as
// counterexample text.
func (e *explorer) renderStep(t transition, st *state) Step {
	step := Step{Actor: int(t.actor), State: st.summary(e.cfg.Nodes, e.cfg.dcfg)}
	switch t.kind {
	case viaInit:
		step.Kind = "init"
	case viaDeliver:
		step.Kind, step.Rule, step.Msg = "deliver", e.table.Rules[t.rule].Name, t.m.String()
	case viaOp:
		step.Kind, step.Rule = "op", e.table.Rules[t.rule].Name
	}
	return step
}
