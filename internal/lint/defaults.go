package lint

import "piranha/internal/protocol"

// DefaultAnalyzers is the suite piranha-vet runs over this repository:
// the determinism and hotpath analyzers, plus the
// protocol-table analyzer over the dispatch files and enum pair the
// shipped protocol's Spec (internal/protocol) names. Goroutine fan-out
// is confined to the experiment runner (internal/runner), and even
// there a goroutine may not call Schedule/After: an engine's event queue
// belongs to the goroutine that runs it.
func DefaultAnalyzers() []Analyzer {
	s, _ := protocol.Lookup("piranha")
	return []Analyzer{
		Determinism("internal/runner"),
		Hotpath(),
		ProtocolTable(ProtoConfig{
			Files:    s.Files,
			StatePkg: s.StatePkg, StateName: s.StateName,
			MsgPkg: s.MsgPkg, MsgName: s.MsgName,
		}),
	}
}
