package mcheck

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"piranha/internal/directory"
	"piranha/internal/protocol"
)

// Config bounds one exploration.
type Config struct {
	// Nodes is the micro-system size (2..4); node 0 is the home. Check
	// panics on a size outside that range.
	Nodes int
	// MaxOps bounds the processor operations (issues and write hits)
	// any single trace may consume; evictions ride free, so the
	// reachable space is finite. A value above MaxOpsLimit is lowered to
	// it.
	MaxOps int
	// MaxDepth bounds the BFS depth; 0 explores to exhaustion.
	MaxDepth int
	// MaxStates is a safety valve on the visited set; 0 selects the
	// default, and a value above MaxStatesLimit is lowered to it.
	MaxStates int
	// TSRFEntries is the per-node occupancy bound the checker enforces;
	// a value above TSRFEntriesLimit is lowered to it.
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

// MaxOpsLimit and TSRFEntriesLimit are the largest MaxOps and
// TSRFEntries a check honours. A state keeps its operation count and
// each node's TSRF occupancy in one byte each, so a bound above 255
// could never stop either from wrapping to 0.
const (
	MaxOpsLimit      = 255
	TSRFEntriesLimit = 255
)

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.MaxOps == 0 {
		c.MaxOps = DefaultMaxOps
	}
	c.MaxOps = min(c.MaxOps, MaxOpsLimit)
	if c.MaxStates == 0 {
		c.MaxStates = DefaultMaxStates
	}
	c.MaxStates = min(c.MaxStates, MaxStatesLimit)
	if c.TSRFEntries == 0 {
		c.TSRFEntries = DefaultTSRFEntries
	}
	c.TSRFEntries = min(c.TSRFEntries, TSRFEntriesLimit)
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

// explorer runs one bounded BFS. Its model is fixed before the search
// starts; the rest belongs to the replay, on the goroutine that called
// Check.
type explorer struct {
	model
	states  paged[record] // per state number, its BFS parent
	visited visitedSet    // per state number, its canonical key
	result  *Result
	fires   []int // firings per rule, by table index
	cut     bool  // some state lay at the depth bound

	self    expander   // the calling goroutine's share of the expansion
	helpers []expander // one per helper goroutine: GOMAXPROCS−1, fewer than a chunk's pieces
}

// model is what expanding a state reads: the configuration and the table
// with its rule index. Nothing writes it once the search starts, so every
// expander shares it.
type model struct {
	cfg       Config
	table     *protocol.Table
	rules     *ruleIndex
	consuming []bool // per rule, by table index: opConsuming
}

// newModel indexes the table's rules for a search under cfg, which
// withDefaults has completed.
func newModel(table *protocol.Table, cfg Config) model {
	m := model{cfg: cfg, table: table, rules: newRuleIndex(table)}
	for i := range table.Rules {
		m.consuming = append(m.consuming, opConsuming(&table.Rules[i]))
	}
	return m
}

// Check explores the table's reachable state space under cfg and
// reports violations with counterexamples. Exploration is fully
// deterministic: successor enumeration, state hashing, and violation
// order depend only on the table and config, not on how many goroutines
// expand states. Check panics, before any goroutine starts, on a
// cfg.Nodes outside 2–4: the state holds at most 4 nodes.
func Check(table *protocol.Table, cfg Config) *Result {
	return explore(table, cfg).result
}

// explore runs one exploration and returns the explorer, visited
// records included, with its result filled in.
func explore(table *protocol.Table, cfg Config) *explorer {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 || cfg.Nodes > maxNodes {
		panic(fmt.Sprintf("mcheck: Config.Nodes is %d; a check explores 2 to %d nodes", cfg.Nodes, maxNodes))
	}
	e := &explorer{
		model: newModel(table, cfg),
		result: &Result{
			Nodes:  cfg.Nodes,
			MaxOps: cfg.MaxOps,
		},
		fires: make([]int, len(table.Rules)),
	}
	e.run()
	e.result.States = e.states.len()
	// Table.Validate keeps rule names unique, so the name order is total.
	for i, r := range table.Rules {
		e.result.RuleFires = append(e.result.RuleFires, RuleCount{Rule: r.Name, Fires: e.fires[i]})
	}
	sort.Slice(e.result.RuleFires, func(i, j int) bool {
		return e.result.RuleFires[i].Rule < e.result.RuleFires[j].Rule
	})
	return e
}

// chunkSize is the most consecutive states one batch expands, and
// pieceSize the most of them one claim takes.
const (
	chunkSize = 1024
	pieceSize = 128
)

// batch is a chunk of consecutive states, lo up to hi, cut into pieces of
// pieceSize states. The helpers and the calling goroutine claim the
// pieces one at a time, and each piece is expanded into its own buffers.
type batch struct {
	lo, hi int
	keys   [][]byte // per state of the chunk, its key
	depths []int32  // per state of the chunk, its BFS depth
	pieces [chunkSize / pieceSize]expansion
	n      int32          // pieces the chunk fills
	claims atomic.Int32   // pieces claimed so far
	wg     sync.WaitGroup // the helpers expanding the chunk
}

// run searches breadth-first in state-number order. Expanding a state
// reads only that state, so while the calling goroutine replays one
// batch's expansions into the visited set and the records, GOMAXPROCS−1
// helpers (at most one fewer than a chunk's pieces) expand the next
// batch, and the calling goroutine takes what they have not claimed once
// its replay is done. The replay takes each state's events in number
// order, exactly as expanding the states one by one would meet them, so
// state numbers, counts, traces and every stop are the same whoever
// expands which piece.
func (e *explorer) run() {
	init := state{}
	bits, err := directory.Encode(e.cfg.dcfg, directory.Clear())
	if err != nil {
		e.result.Violations = append(e.result.Violations, Violation{
			Invariant: InvCodec, Detail: err.Error()})
		return
	}
	init.dir = bits
	k := init.appendKey(nil, e.cfg.Nodes)
	e.visited.add(k, hashTag(k))
	e.states.append(record{parent: -1, via: transition{kind: viaInit}})

	// Two batches alternate: the helpers fill one while the replay reads
	// the other.
	var batches [2]batch
	cur, next := &batches[0], &batches[1]
	e.self.model = &e.model
	e.helpers = make([]expander, min(runtime.GOMAXPROCS(0), len(cur.pieces))-1)
	for h := range e.helpers {
		e.helpers[h].model = &e.model
	}
	e.launch(cur, 0)
	for {
		e.self.work(cur)
		cur.wg.Wait()
		ahead := e.launch(next, cur.hi)
		if e.replay(cur) {
			next.wg.Wait()
			return
		}
		if !ahead && !e.launch(next, cur.hi) {
			break // the frontier is empty
		}
		cur, next = next, cur
	}
	e.result.Exhausted = !e.cut
}

// launch opens the states from lo on that are already admitted, at most
// chunkSize of them, to claims, starts the helpers on them, and reports
// whether there were any. The expanders get those states' keys and
// depths, taken here, so they read nothing the replay appends to; a key
// stays valid because arena chunks never move.
func (e *explorer) launch(b *batch, lo int) bool {
	b.lo, b.hi = lo, min(lo+chunkSize, e.states.len())
	if b.lo == b.hi {
		return false
	}
	b.keys, b.depths = b.keys[:0], b.depths[:0]
	for id := int32(b.lo); id < int32(b.hi); id++ {
		b.keys = append(b.keys, e.visited.key(id))
		b.depths = append(b.depths, e.states.at(id).depth)
	}
	b.n = int32((b.hi - b.lo + pieceSize - 1) / pieceSize)
	b.claims.Store(0)
	for h := range e.helpers {
		b.wg.Add(1)
		//piranha:allow determinism each worker writes only its own part, which the replay reads in state order after wg.Wait
		go e.helpers[h].help(&b.wg, b)
	}
	return true
}

// replay takes a batch's events through the visited set and the records,
// state by state in number order, as the serial search did on expanding
// each state. It reports whether the search must stop: the violation
// budget or the state cap is reached.
func (e *explorer) replay(b *batch) (stop bool) {
	id := int32(b.lo)
	for p := range b.pieces[:b.n] {
		x := &b.pieces[p]
		keys, found, ev := x.keys, x.found, 0
		for _, end := range x.ends {
			depth := e.states.at(id).depth
			e.result.Depth = max(e.result.Depth, int(depth))
			expanded := true
			for ; ev < int(end); ev++ {
				t := &x.events[ev]
				switch t.kind {
				case evSucc:
					e.fires[t.via.rule]++
					e.result.Transitions++
					if _, added := e.visited.add(keys[:t.n], t.tag); added {
						e.states.append(record{parent: id, depth: depth + 1, via: t.via})
					}
					keys = keys[t.n:]
				case evDelayed:
					e.fires[t.via.rule]++
				case evCut:
					e.cut, expanded = true, false
				default: // a violation
					if t.kind == evBroken {
						e.fires[t.via.rule]++
					}
					if t.kind == evBadState {
						expanded = false
					}
					if e.report(id, depth, &found[0]) {
						return true
					}
					found = found[1:]
				}
			}
			if expanded && e.states.len() >= e.cfg.MaxStates {
				return true
			}
			id++
		}
	}
	return false
}

// Kinds of expansion event.
const (
	evSucc      uint8 = iota // a rule fired and produced a successor
	evDelayed                // a rule fired and left its message in place (OpDelay)
	evBroken                 // a rule fired and its run broke an invariant
	evViolation              // no rule matched a reception, or the state is deadlocked
	evBadState               // the state breaks a state invariant and is not expanded
	evCut                    // the state lies at the depth bound and is not expanded
)

// event is one entry of an expansion's list. An evSucc's successor key
// is the next n bytes of the expander's keys; the violation of an
// evBroken, evViolation or evBadState is its next found.
type event struct {
	kind uint8
	via  transition // the fired rule and, for evSucc, the transition to record
	n    uint32     // evSucc: key length
	tag  uint32     // evSucc: hashTag of the key
}

// found is a violation an expansion met: at the state itself (step is
// zero), or on a transition out of it, which step renders.
type found struct {
	v    violationErr
	step Step
}

// expansion is one piece's expansion: per state in order, the events
// the replay takes through the visited set.
type expansion struct {
	ends   []int32 // per expanded state, the end of its events
	events []event
	keys   []byte  // successor keys, in event order
	found  []found // violations, in event order
}

// expander expands the pieces one goroutine claims. It reads only the
// model and the keys it is handed, and writes only the piece it expands.
type expander struct {
	*model
	// cur is the state being expanded, decoded from its key; entry is its
	// directory, decoded once per expansion. Every successor is built in
	// next, a copy of cur, overwritten by the next successor.
	cur   state
	entry directory.Entry
	next  state

	*expansion // the piece being expanded
}

// help expands the batch's pieces on a helper goroutine, then marks wg
// done.
func (x *expander) help(wg *sync.WaitGroup, b *batch) {
	defer wg.Done()
	x.work(b)
}

// work claims the batch's pieces one at a time and expands each, until
// none is left to claim.
func (x *expander) work(b *batch) {
	for {
		p := b.claims.Add(1) - 1
		if p >= b.n {
			return
		}
		from := int(p) * pieceSize
		to := min(from+pieceSize, b.hi-b.lo)
		x.expansion = &b.pieces[p]
		x.ends, x.events, x.keys, x.found = x.ends[:0], x.events[:0], x.keys[:0], x.found[:0]
		for i, k := range b.keys[from:to] {
			x.expand(k, b.depths[from+i])
			x.ends = append(x.ends, int32(len(x.events)))
		}
	}
}

// expand lists one state's events. A broken state invariant or the depth
// bound ends the state. Otherwise its successors come in deterministic
// order: message deliveries (src-major, dst-minor), then spontaneous
// processor operations (node-major, table-order minor); with messages in
// flight and no transition enabled, the state is deadlocked.
func (x *expander) expand(k []byte, depth int32) {
	n := x.cfg.Nodes
	x.cur.decode(k, n)
	// State invariants hold at every reachable configuration.
	if v, ok := x.checkStateInvariants(&x.cur); ok {
		x.violation(evBadState, transition{}, v, Step{})
		return
	}
	if x.cfg.MaxDepth > 0 && int(depth) >= x.cfg.MaxDepth {
		x.events = append(x.events, event{kind: evCut})
		return
	}
	x.entry = directory.Decode(x.cfg.dcfg, x.cur.dir)
	enabled := false
	// Deliveries: a channel's head is at the running offset.
	off := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			c := channel(src, dst)
			if src != dst && x.cur.counts[c] > 0 && x.deliver(dst, c, off) {
				enabled = true
			}
			off += int(x.cur.counts[c])
		}
	}
	// Spontaneous operations.
	for node := 0; node < n; node++ {
		for _, ri := range x.rules[protocol.MsgNone][x.entry.State][x.cur.nodes[node].line] {
			if x.spontaneous(node, ri) {
				enabled = true
			}
		}
	}
	if !enabled && !x.cur.quiescent() {
		x.violation(evViolation, transition{}, &violationErr{InvDeadlock,
			"messages in flight but no rule is enabled at any node"}, Step{})
	}
}

// deliver pops the head of channel c, at slot off, and fires the first
// key- and guard-matching rule at its destination dst. It reports
// whether that enabled a transition: a rule fired and did not delay the
// message.
func (x *expander) deliver(dst, c, off int) bool {
	st, entry := &x.cur, &x.entry
	m, line := st.msgs[off], st.nodes[dst].line

	for _, ri := range x.rules[m.kind][entry.State][line] {
		r := &x.table.Rules[ri]
		if !roleOK(r, dst) || (r.Req != protocol.ReqAny && r.Req != m.req) {
			continue
		}
		in := interp{cfg: &x.cfg, st: st, rule: r, act: dst, m: &m, entry: entry,
			requester: receptionRequester(m), reqKind: m.req}
		if !in.guardHolds() {
			continue
		}
		// The first matching rule fires on the scratch successor.
		x.next = *st
		x.next.pop(c, off)
		in.st = &x.next
		delayed, err := in.run()
		via := transition{kind: viaDeliver, actor: uint8(dst), rule: ri, m: m}
		if delayed {
			x.events = append(x.events, event{kind: evDelayed, via: via})
			return false
		}
		x.fired(via, err)
		return true
	}

	// No rule accepts the reception: either a declared hole was reached
	// (the table's unreachability promise is broken) or the reception is
	// wholly unspecified — the configuration a NAKing protocol would
	// bounce, which this protocol promises never to need.
	step := Step{Actor: dst, Kind: "deliver", Rule: "(none)", Msg: m.String(),
		State: st.summary(x.cfg.Nodes, x.cfg.dcfg)}
	if reason, ok := x.table.Unreachable(entry.State, line, m.kind, m.req); ok {
		x.violation(evViolation, transition{}, &violationErr{InvReachedHole,
			fmt.Sprintf("declared-unreachable reception %v at node %d (dir=%v line=%v): %s",
				m.kind, dst, entry.State, line, reason)}, step)
		return false
	}
	x.violation(evViolation, transition{}, &violationErr{InvUnspecified,
		fmt.Sprintf("no rule for %v at node %d (dir=%v line=%v req=%v) — a NAK would be required",
			m.kind, dst, entry.State, line, m.req)}, step)
	return false
}

// spontaneous fires one processor-side rule, taken from the index cell
// of the node's directory state and line, at a node if its role, guard
// and the operation budget allow, and reports whether it fired.
func (x *expander) spontaneous(node int, ri uint16) bool {
	st, r := &x.cur, &x.table.Rules[ri]
	consuming := x.consuming[ri]
	if consuming && int(st.ops) >= x.cfg.MaxOps {
		return false
	}
	if !roleOK(r, node) {
		return false
	}
	in := interp{cfg: &x.cfg, st: st, rule: r, act: node, entry: &x.entry,
		requester: uint8(node), reqKind: r.Req}
	if !in.guardHolds() {
		return false
	}
	x.next = *st
	if consuming {
		x.next.ops++
	}
	in.st = &x.next
	_, err := in.run()
	x.fired(transition{kind: viaOp, actor: uint8(node), rule: ri}, err)
	return true
}

// fired lists a rule firing that built x.next: the successor, its key
// appended to the piece's keys, or the violation the run raised, whose step
// shows the partly-applied successor.
func (x *expander) fired(via transition, err error) {
	if err != nil {
		v, ok := err.(*violationErr)
		if !ok {
			v = &violationErr{InvUnspecified, err.Error()}
		}
		x.violation(evBroken, via, v, x.renderStep(via, &x.next))
		return
	}
	start := len(x.keys)
	x.keys = x.next.appendKey(x.keys, x.cfg.Nodes)
	k := x.keys[start:]
	x.events = append(x.events, event{kind: evSucc, via: via, n: uint32(len(k)), tag: hashTag(k)})
}

// violation lists a violation event.
func (x *expander) violation(kind uint8, via transition, v *violationErr, step Step) {
	x.events = append(x.events, event{kind: kind, via: via})
	x.found = append(x.found, found{*v, step})
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
func (m *model) checkStateInvariants(st *state) (*violationErr, bool) {
	n := m.cfg.Nodes
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
		if int(nd.tsrf) > m.cfg.TSRFEntries {
			return &violationErr{InvTSRFBound,
				fmt.Sprintf("node %d occupies %d TSRF entries (bound %d)", i, nd.tsrf, m.cfg.TSRFEntries)}, true
		}
		// No stale readable copy: a shared holder lagging the last write
		// must have its invalidation already in flight (the bounded
		// window weak ordering permits); a stale copy nobody is coming
		// for is a read of lost data.
		if nd.line == protocol.LineShared && nd.val != st.cur && !st.invalInFlightTo(i) {
			return &violationErr{InvStaleSharer,
				fmt.Sprintf("node %d holds a readable v%d copy after write v%d with no invalidation in flight", i, nd.val, st.cur)}, true
		}
	}
	if exclusives > 1 {
		return &violationErr{InvMultiWriter,
			fmt.Sprintf("%d nodes hold the line exclusively", exclusives)}, true
	}
	if !st.quiescent() {
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

// report records a violation found at state cur: at the state itself,
// at its depth, or on the transition out of it that f's step renders, one
// level deeper. It reports whether the search must stop.
func (e *explorer) report(cur int32, depth int32, f *found) bool {
	if f.step.Kind != "" {
		depth++
	}
	e.result.Violations = append(e.result.Violations, Violation{
		Invariant: f.v.invariant,
		Detail:    f.v.detail,
		Rule:      f.step.Rule,
		Depth:     int(depth),
		Trace:     e.tracePath(cur, f.step),
	})
	return len(e.result.Violations) >= e.cfg.MaxViolations
}

// tracePath reconstructs the shortest path from the initial state,
// rendering each recorded step from its compact transition and decoded
// state, and appends the violating step when one exists.
func (e *explorer) tracePath(cur int32, extra Step) []Step {
	var rev []Step
	var st state
	for i := cur; i >= 0; i = e.states.at(i).parent {
		st.decode(e.visited.key(i), e.cfg.Nodes)
		rev = append(rev, e.renderStep(e.states.at(i).via, &st))
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
func (m *model) renderStep(t transition, st *state) Step {
	step := Step{Actor: int(t.actor), State: st.summary(m.cfg.Nodes, m.cfg.dcfg)}
	switch t.kind {
	case viaInit:
		step.Kind = "init"
	case viaDeliver:
		step.Kind, step.Rule, step.Msg = "deliver", m.table.Rules[t.rule].Name, t.m.String()
	case viaOp:
		step.Kind, step.Rule = "op", m.table.Rules[t.rule].Name
	}
	return step
}
