package lint

import "piranha/internal/protocol"

// DefaultAnalyzers is the suite piranha-vet runs over this repository:
// the determinism, hotpath and nil-guard analyzers, plus one
// protocol-table analyzer per registered protocol — the registry
// (internal/protocol) names each protocol's dispatch files and enum
// pair, so registering a rival protocol automatically puts its dispatch
// under the same §3.5 completeness gate. Goroutine fan-out is confined
// to the experiment runner (internal/runner), and even there a
// goroutine may not call Schedule/After: an engine's event queue
// belongs to the goroutine that runs it.
func DefaultAnalyzers() []Analyzer {
	out := []Analyzer{
		Determinism("internal/runner"),
		Hotpath(),
	}
	for _, s := range protocol.Registered() {
		out = append(out, ProtocolTable(ProtoConfig{
			Files:    s.Files,
			StatePkg: s.StatePkg, StateName: s.StateName,
			MsgPkg: s.MsgPkg, MsgName: s.MsgName,
		}))
	}
	return append(out, NilGuard())
}
