package lint

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// A multi-file ProtoConfig checks every listed file, but only the
// primary (first) file must itself contain the dispatch switches:
// satellite files are coverage-checked on the switches they do have.
func TestProtoConfigMultiFile(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "src", "fixmod"))
	if err != nil {
		t.Fatal(err)
	}
	base := ProtoConfig{
		StatePkg: "proto", StateName: "State",
		MsgPkg: "proto", MsgName: "Kind",
	}

	// Table file primary, switch-free file as satellite: the satellite
	// must not be required to re-dispatch.
	cfg := base
	cfg.Files = []string{"proto/table.go", "hot/hot.go"}
	noSwitch := 0
	for _, d := range Run(mod, []Analyzer{ProtocolTable(cfg)}) {
		if strings.Contains(d.Message, "contains no switch") {
			noSwitch++
		}
	}
	if noSwitch != 0 {
		t.Errorf("satellite file without switches produced %d no-switch findings, want 0", noSwitch)
	}

	// Swapped order: the switch-free file is now primary and must be
	// flagged for both enums.
	cfg.Files = []string{"hot/hot.go", "proto/table.go"}
	noSwitch = 0
	for _, d := range Run(mod, []Analyzer{ProtocolTable(cfg)}) {
		if d.File == "hot/hot.go" && strings.Contains(d.Message, "contains no switch") {
			noSwitch++
		}
	}
	if noSwitch != 2 {
		t.Errorf("switch-free primary file produced %d no-switch findings, want 2 (state and message)", noSwitch)
	}
}

// WriteJSON is the shared wire shape of piranha-vet -json and
// piranha-mc -json: deterministic, and an empty run is [] — never null.
func TestWriteJSON(t *testing.T) {
	var empty bytes.Buffer
	if err := WriteJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(empty.String()); got != "[]" {
		t.Errorf("empty diagnostics encode as %q, want []", got)
	}

	diags := []Diagnostic{
		{File: "a.go", Line: 3, Analyzer: "determinism", Message: "m1"},
		{File: "b.go", Line: 9, Analyzer: "mcheck/stale-fill", Message: "m2"},
	}
	var x, y bytes.Buffer
	if err := WriteJSON(&x, diags); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&y, diags); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Error("WriteJSON is nondeterministic")
	}
	for _, want := range []string{`"file": "a.go"`, `"line": 9`, `"analyzer": "mcheck/stale-fill"`, `"message": "m1"`} {
		if !strings.Contains(x.String(), want) {
			t.Errorf("encoded JSON missing %s:\n%s", want, x.String())
		}
	}
}
