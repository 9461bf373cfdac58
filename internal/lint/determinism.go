package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism returns the analyzer enforcing serial-vs-parallel byte
// equality. It flags:
//
//   - calls to time.Now / time.Since (host wall-clock leaking into a
//     simulation measured in sim.Time picoseconds);
//   - top-level math/rand functions (global generator state is shared
//     across parallel experiment workers; methods on an explicitly
//     seeded *rand.Rand are fine);
//   - range loops over maps whose body emits output, schedules events,
//     or appends to a slice declared outside the loop — unless the
//     enclosing function sorts after the loop (the canonical
//     collect-then-sort idiom, e.g. sortutil.Keys);
//   - goroutine launches outside the packages in allowGoroutines
//     (module-relative directories; worker fan-out belongs to the
//     experiment runner, nowhere else);
//   - sim.Engine scheduling calls (Schedule/After) lexically inside a
//     launched goroutine: an engine's event queue is owned by the
//     goroutine running that engine, so a call from any other goroutine
//     races the heap and breaks byte-identity, even in allowlisted
//     packages;
//   - any math/rand use at all inside a fault-injection package
//     (internal/fault): fault schedules must replay bit-identically
//     across reruns and parallel workers, so their randomness must flow
//     from seeded sim.RNG streams (sim.NewRNG / RNG.Split) — even an
//     explicitly seeded *rand.Rand is rejected there.
func Determinism(allowGoroutines ...string) Analyzer {
	allowed := make(map[string]bool, len(allowGoroutines))
	for _, dir := range allowGoroutines {
		allowed[dir] = true
	}
	return Analyzer{
		Name: "determinism",
		Run: func(m *Module, p *Package) []Diagnostic {
			d := &detPass{
				m: m, p: p,
				goroutineOK: allowed[m.relPkg(p)],
				simRNGOnly:  faultPkg(m.relPkg(p)),
			}
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						d.checkBannedFunc(n)
					case *ast.GoStmt:
						if !d.goroutineOK {
							d.out = append(d.out, m.diag("determinism", n.Pos(),
								"goroutine launched outside the fan-out allowlist: worker fan-out belongs to the experiment runner (internal/runner)"))
						}
						d.checkGoroutineScheduling(n)
					case *ast.FuncDecl:
						if n.Body != nil {
							d.checkMapRanges(n)
						}
					}
					return true
				})
			}
			return d.out
		},
	}
}

type detPass struct {
	m           *Module
	p           *Package
	goroutineOK bool
	// simRNGOnly marks fault-injection packages, where every math/rand
	// use is banned (fault randomness must flow from seeded sim.RNG).
	simRNGOnly bool
	out        []Diagnostic
}

// faultPkg reports whether a module-relative package directory is a
// fault-injection package, held to the stricter sim.RNG-only rule.
func faultPkg(rel string) bool {
	return rel == "internal/fault" || rel == "fault" || strings.HasSuffix(rel, "/fault")
}

// checkBannedFunc flags uses of wall-clock and global-rand functions.
func (d *detPass) checkBannedFunc(sel *ast.SelectorExpr) {
	fn, ok := d.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			d.out = append(d.out, d.m.diag("determinism", sel.Pos(),
				"time.%s reads the host clock; simulations must use sim.Time only", fn.Name()))
		}
	case "math/rand", "math/rand/v2":
		if d.simRNGOnly {
			// Fault-injection packages: every math/rand use — even an
			// explicitly seeded *rand.Rand — is out; fault schedules must
			// come from seeded sim.RNG streams so split-off component
			// streams stay independent and reruns replay bit-identically.
			d.out = append(d.out, d.m.diag("determinism", sel.Pos(),
				"%s.%s in a fault-injection package: fault randomness must flow from a seeded sim.RNG stream (sim.NewRNG / RNG.Split)", fn.Pkg().Name(), fn.Name()))
			return
		}
		// Constructors (rand.New, rand.NewSource) build the explicitly
		// seeded generators we want; only the top-level functions that
		// share the global generator are nondeterministic.
		if strings.HasPrefix(fn.Name(), "New") {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			d.out = append(d.out, d.m.diag("determinism", sel.Pos(),
				"top-level %s.%s uses the shared global generator; use an explicitly seeded *rand.Rand", fn.Pkg().Name(), fn.Name()))
		}
	}
}

// checkGoroutineScheduling flags Schedule/After calls lexically inside a
// launched goroutine — the direct call (go eng.Schedule(...)) and any
// call within the goroutine's function literal. An engine's event queue
// belongs to the goroutine that runs the engine, so a launched goroutine
// has no legal way to schedule into it. This rule holds even in packages
// allowed to launch goroutines; a runner worker never schedules directly,
// it hands a whole experiment to core.Run.
func (d *detPass) checkGoroutineScheduling(g *ast.GoStmt) {
	flag := func(call *ast.CallExpr) {
		if name := calleeName(call); scheduleNames[name] {
			d.out = append(d.out, d.m.diag("determinism", call.Pos(),
				"%s called from a goroutine: an engine's event queue belongs to the goroutine that runs the engine; schedule from that goroutine only", name))
		}
	}
	flag(g.Call)
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call != g.Call {
			flag(call)
		}
		return true
	})
}

// checkMapRanges inspects every range-over-map loop in fd for
// order-sensitive effects.
func (d *detPass) checkMapRanges(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := d.p.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		d.checkMapRangeBody(fd, rng)
		return true
	})
}

// Output-emitting call names: fmt's print family plus the Write*
// methods of writers and builders.
var outputNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Errorf": true,
	"Write":  true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// Event-scheduling call names (the sim.Engine API).
var scheduleNames = map[string]bool{"Schedule": true, "After": true}

func (d *detPass) checkMapRangeBody(fd *ast.FuncDecl, rng *ast.RangeStmt) {
	var appendDiags []Diagnostic
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			name := calleeName(n)
			switch {
			case outputNames[name]:
				d.out = append(d.out, d.m.diag("determinism", n.Pos(),
					"%s inside a map range loop emits output in nondeterministic order; iterate sorted keys (sortutil.Keys)", name))
			case scheduleNames[name]:
				d.out = append(d.out, d.m.diag("determinism", n.Pos(),
					"%s inside a map range loop schedules events in nondeterministic order; iterate sorted keys (sortutil.Keys)", name))
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || calleeName(call) != "append" || !d.isBuiltin(call) {
					continue
				}
				if i >= len(n.Lhs) {
					continue
				}
				if base := baseIdent(n.Lhs[i]); base != nil && d.declaredOutside(base, rng) {
					appendDiags = append(appendDiags, d.m.diag("determinism", n.Pos(),
						"append to %s (declared outside the loop) while ranging over a map builds a nondeterministically ordered slice; iterate sorted keys or sort the result", base.Name))
				} else if base == nil {
					appendDiags = append(appendDiags, d.m.diag("determinism", n.Pos(),
						"append to a non-local target while ranging over a map builds a nondeterministically ordered slice; iterate sorted keys or sort the result"))
				}
			}
		}
		return true
	})
	if len(appendDiags) > 0 && !sortCallAfter(fd, rng.End()) {
		d.out = append(d.out, appendDiags...)
	}
}

// isBuiltin reports whether a call's callee resolves to a Go builtin.
func (d *detPass) isBuiltin(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = d.p.Info.Uses[id].(*types.Builtin)
	return ok
}

// baseIdent resolves an assignment target to its base identifier:
// x, x[i], x.f[k] all resolve to x. A nil result means the base is not
// a plain identifier (e.g. a field of a dereferenced pointer), which
// is conservatively treated as declared outside the loop.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether id's declaration lies outside the
// range statement (the loop variables and body-locals lie inside).
func (d *detPass) declaredOutside(id *ast.Ident, rng *ast.RangeStmt) bool {
	obj := d.p.Info.ObjectOf(id)
	if obj == nil {
		return true // unresolved: be conservative
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// sortCallAfter reports whether fd's body contains a sorting call after
// pos — the collect-then-sort idiom that restores a deterministic order
// to a slice filled from a map. A call sorts when its bare name
// mentions Sort (slices.Sort, sort.Slice, ...) or it is any function of
// package sort (sort.Strings, sort.Ints, ...).
func sortCallAfter(fd *ast.FuncDecl, pos token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		if strings.Contains(calleeName(call), "Sort") {
			found = true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sort" {
				found = true
			}
		}
		return true
	})
	return found
}
