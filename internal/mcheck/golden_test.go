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
// prints is part of the checker's contract, however it is produced. The
// shipped table at 2 nodes and 5 operations is one more input: every
// violation of that exhaustive run, its known races included (ROADMAP
// item 1), is pinned the same way.
func TestCounterexampleGolden(t *testing.T) {
	type input struct {
		name  string
		table *protocol.Table
		cfg   Config
	}
	cases := []input{
		{"piranha-ops5", protocol.Piranha(), Config{Nodes: 2, MaxOps: 5, MaxViolations: 1_000_000}},
	}
	for _, m := range protocol.Mutations() {
		cases = append(cases, input{m.Name, m.Apply(), Config{Nodes: 2, MaxViolations: 4}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := Check(c.table, c.cfg)
			got, err := json.MarshalIndent(res.Violations, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			golden := filepath.Join("testdata", c.name+".json")
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
				t.Errorf("%s counterexamples diverge from %s (run with -update to regenerate)\n--- got ---\n%s", c.name, golden, got)
			}
		})
	}
}
