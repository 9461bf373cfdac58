package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// ProtoConfig names a protocol's dispatch files and the two enums whose
// cross-product they must cover. Packages are module-relative
// directories ("" means the file's own package). A protocol.Spec maps
// onto one field for field; the analyzer is not tied to the shipped
// table.
type ProtoConfig struct {
	Files     []string // module-relative paths of every dispatch file
	StatePkg  string   // package declaring the protocol-state enum
	StateName string   // its type name
	MsgPkg    string   // package declaring the message-kind enum
	MsgName   string   // its type name
}

var nakIdent = regexp.MustCompile(`Nak|NAK`)

// ProtocolTable returns the analyzer enforcing the paper's §3.5
// protocol completeness properties on each dispatch file:
//
//   - every switch over the state or message enum must handle every
//     declared constant (or carry a default clause), and each
//     unhandled (state, message) pair must appear in an explicit
//     `//piranha:unreachable STATE MSG reason` ledger (`*` wildcards
//     either coordinate);
//   - ledger entries that no longer excuse anything, or that name
//     unknown constants, are themselves findings (the ledger may not
//     rot);
//   - the protocol's primary file — the first in the config's list,
//     by convention its transition table — must contain at least one
//     switch over each enum (deleting the dispatch is not a way to
//     pass); satellite files are coverage-checked on whatever
//     switches they do contain;
//   - no identifier matching Nak|NAK may appear as an argument to a
//     send call: the protocol is NAK-free by design, and this makes
//     that a build-time property.
func ProtocolTable(cfg ProtoConfig) Analyzer {
	return Analyzer{
		Name: "protocoltable",
		Run: func(m *Module, p *Package) []Diagnostic {
			var out []Diagnostic
			for i, rel := range cfg.Files {
				file := findFile(m, p, rel)
				if file == nil {
					continue
				}
				pt := &protoPass{m: m, p: p, cfg: cfg, rel: rel, file: file, primary: i == 0}
				out = append(out, pt.run()...)
			}
			return out
		},
	}
}

// findFile returns the AST of the package file whose module-relative
// path is rel, if p contains it.
func findFile(m *Module, p *Package, rel string) *ast.File {
	for _, f := range p.Files {
		if name, _ := m.relPos(f.Pos()); name == rel {
			return f
		}
	}
	return nil
}

type protoPass struct {
	m    *Module
	p    *Package
	cfg  ProtoConfig
	rel  string // module-relative path of the file under check
	file *ast.File
	// primary marks the protocol's first file, which must itself contain
	// the dispatch switches; satellite files only have the switches they
	// do contain coverage-checked.
	primary bool
	out     []Diagnostic
}

type ledgerEntry struct {
	state, msg string
	pos        ast.Node
	used       bool
}

func (pt *protoPass) run() []Diagnostic {
	stateType, stateConsts, err := pt.enum(pt.cfg.StatePkg, pt.cfg.StateName)
	if err != nil {
		return []Diagnostic{pt.m.diag("protocoltable", pt.file.Pos(), "%v", err)}
	}
	msgType, msgConsts, err := pt.enum(pt.cfg.MsgPkg, pt.cfg.MsgName)
	if err != nil {
		return []Diagnostic{pt.m.diag("protocoltable", pt.file.Pos(), "%v", err)}
	}

	ledger := pt.collectLedger(stateConsts, msgConsts)

	// Walk every switch over either enum, collecting unexcused holes.
	sawState, sawMsg := false, false
	ast.Inspect(pt.file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tv, ok := pt.p.Info.Types[sw.Tag]
		if !ok || tv.Type == nil {
			return true
		}
		switch {
		case types.Identical(tv.Type, stateType):
			sawState = true
			pt.checkSwitch(sw, "state", pt.cfg.StateName, stateConsts, msgConsts, ledger, true)
		case types.Identical(tv.Type, msgType):
			sawMsg = true
			pt.checkSwitch(sw, "message", pt.cfg.MsgName, msgConsts, stateConsts, ledger, false)
		}
		return true
	})
	if pt.primary && !sawState {
		pt.out = append(pt.out, pt.m.diag("protocoltable", pt.file.Pos(),
			"%s contains no switch over %s.%s: the protocol dispatch must be switch-driven so coverage is checkable", pt.rel, pt.statePkgName(), pt.cfg.StateName))
	}
	if pt.primary && !sawMsg {
		pt.out = append(pt.out, pt.m.diag("protocoltable", pt.file.Pos(),
			"%s contains no switch over %s.%s: the protocol dispatch must be switch-driven so coverage is checkable", pt.rel, pt.msgPkgName(), pt.cfg.MsgName))
	}

	// Stale ledger entries.
	for _, e := range ledger {
		if !e.used {
			pt.out = append(pt.out, pt.m.diag("protocoltable", e.pos.Pos(),
				"stale //piranha:unreachable entry (%s, %s): every switch already handles it", e.state, e.msg))
		}
	}

	pt.checkNAK()
	return pt.out
}

func (pt *protoPass) statePkgName() string {
	if pt.cfg.StatePkg == "" {
		return pt.p.Name
	}
	return pt.cfg.StatePkg[strings.LastIndex(pt.cfg.StatePkg, "/")+1:]
}

func (pt *protoPass) msgPkgName() string {
	if pt.cfg.MsgPkg == "" {
		return pt.p.Name
	}
	return pt.cfg.MsgPkg[strings.LastIndex(pt.cfg.MsgPkg, "/")+1:]
}

// enum resolves a named enum type and its declared constants, in
// declaration order.
func (pt *protoPass) enum(relPkg, typeName string) (types.Type, []string, error) {
	pkgPath := pt.p.Path
	if relPkg != "" {
		pkgPath = pt.m.Path + "/" + relPkg
	}
	dp := pt.m.byPath[pkgPath]
	if dp == nil || dp.Types == nil {
		return nil, nil, fmt.Errorf("protocol enum package %s not found in module", pkgPath)
	}
	obj := dp.Types.Scope().Lookup(typeName)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, nil, fmt.Errorf("protocol enum type %s.%s not found", pkgPath, typeName)
	}
	type namedConst struct {
		name string
		pos  int
	}
	var consts []namedConst
	scope := dp.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), tn.Type()) {
			continue
		}
		if c.Val().Kind() == constant.Int {
			consts = append(consts, namedConst{name, int(c.Pos())})
		}
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].pos < consts[j].pos })
	names := make([]string, len(consts))
	for i, c := range consts {
		names[i] = c.name
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("protocol enum %s.%s declares no constants", pkgPath, typeName)
	}
	return tn.Type(), names, nil
}

// collectLedger parses the //piranha:unreachable directives of the
// dispatch file, validating constant names against the enums.
func (pt *protoPass) collectLedger(stateConsts, msgConsts []string) []*ledgerEntry {
	var out []*ledgerEntry
	for _, cg := range pt.file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, dirUnreachable)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 3 {
				pt.out = append(pt.out, pt.m.diag("protocoltable", c.Pos(),
					"malformed %s: want \"%s STATE MSG reason\"", dirUnreachable, dirUnreachable))
				continue
			}
			state, msg := fields[0], fields[1]
			if state != "*" && !contains(stateConsts, state) {
				pt.out = append(pt.out, pt.m.diag("protocoltable", c.Pos(),
					"unknown state %q in //piranha:unreachable entry (have %s)", state, strings.Join(stateConsts, ", ")))
				continue
			}
			if msg != "*" && !contains(msgConsts, msg) {
				pt.out = append(pt.out, pt.m.diag("protocoltable", c.Pos(),
					"unknown message %q in //piranha:unreachable entry (have %s)", msg, strings.Join(msgConsts, ", ")))
				continue
			}
			out = append(out, &ledgerEntry{state: state, msg: msg, pos: c})
		}
	}
	return out
}

// checkSwitch verifies one switch over an enum: every constant of the
// switched dimension (own) must be cased or defaulted; each hole
// expands to its cross-product pairs against the other dimension and
// must be fully excused by the ledger.
func (pt *protoPass) checkSwitch(sw *ast.SwitchStmt, dim, typeName string, own, other []string, ledger []*ledgerEntry, stateDim bool) {
	covered := make(map[string]bool)
	hasDefault := false
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			if name := pt.constName(e); name != "" {
				covered[name] = true
			}
		}
	}
	if hasDefault {
		return
	}
	for _, c := range own {
		if covered[c] {
			continue
		}
		var missing []string
		for _, o := range other {
			state, msg := c, o
			if !stateDim {
				state, msg = o, c
			}
			if excuse(ledger, state, msg) {
				continue
			}
			missing = append(missing, "("+state+", "+msg+")")
		}
		if len(missing) > 0 {
			pt.out = append(pt.out, pt.m.diag("protocoltable", sw.Pos(),
				"switch on %s does not handle %s %s; pairs missing from the //piranha:unreachable ledger: %s",
				typeName, dim, c, strings.Join(missing, ", ")))
		}
	}
}

// constName resolves a case expression to the name of an enum constant.
func (pt *protoPass) constName(e ast.Expr) string {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return ""
	}
	if c, ok := pt.p.Info.Uses[id].(*types.Const); ok {
		return c.Name()
	}
	return ""
}

// excuse reports whether the ledger covers (state, msg), marking the
// matching entries used.
func excuse(ledger []*ledgerEntry, state, msg string) bool {
	ok := false
	for _, e := range ledger {
		if (e.state == state || e.state == "*") && (e.msg == msg || e.msg == "*") {
			e.used = true
			ok = true
		}
	}
	return ok
}

// checkNAK flags NAK-looking identifiers in sent-message positions:
// any argument of a call to a function or method named Send/send.
func (pt *protoPass) checkNAK() {
	ast.Inspect(pt.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if name != "Send" && name != "send" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				id, ok := an.(*ast.Ident)
				if ok && nakIdent.MatchString(id.Name) {
					pt.out = append(pt.out, pt.m.diag("protocoltable", id.Pos(),
						"identifier %s in sent-message position: the protocol is NAK-free by design (§3.5)", id.Name))
				}
				return true
			})
		}
		return true
	})
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
