package mcheck

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"piranha/internal/protocol"
)

var update = flag.Bool("update", false, "rewrite the counterexample golden files")

// Every cataloged mutation's 2-node violations, traces included, match
// the committed golden JSON byte for byte: the step text a counterexample
// prints is part of the checker's contract, however it is produced.
func TestCounterexampleGolden(t *testing.T) {
	for _, m := range protocol.Mutations() {
		t.Run(m.Name, func(t *testing.T) {
			res := Check(m.Apply(), Config{Nodes: 2, MaxViolations: 4})
			got, err := json.MarshalIndent(res.Violations, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			golden := filepath.Join("testdata", m.Name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s counterexamples diverge from %s (run with -update to regenerate)\n--- got ---\n%s", m.Name, golden, got)
			}
		})
	}
}
