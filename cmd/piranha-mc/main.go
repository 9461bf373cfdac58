// Command piranha-mc model-checks the Piranha coherence protocol: it
// exhaustively explores the reachable state space of an N-node
// micro-system (2–4 nodes, one line, home at node 0) and verifies the
// §3.5 safety claims — NAK-freedom, deadlock-freedom, no stale-data
// reads, TSRF bounds — reporting any violation with a minimal
// counterexample trace.
//
// Usage:
//
//	piranha-mc                          # 2 nodes
//	piranha-mc -nodes 4 -ops 4         # larger micro-system
//	piranha-mc -json                    # result as JSON on stdout
//	piranha-mc -selftest                # mutation self-test (checker's
//	                                    # own regression: planted bugs
//	                                    # must be caught)
//	piranha-mc -cx-dir traces/          # write counterexample traces
//
// Exit status is 0 when the exploration (or self-test) is clean, 1 on
// a violation (or an undetected planted bug), 2 on a usage error.
// Output is deterministic: the same flags produce byte-identical
// output on every run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"piranha/internal/lint"
	"piranha/internal/mcheck"
	"piranha/internal/protocol"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 2, "micro-system size (2-4; node 0 is the home)")
		ops        = flag.Int("ops", mcheck.DefaultMaxOps, "processor-operation budget per trace")
		depth      = flag.Int("depth", 0, "BFS depth bound (0 = explore to exhaustion)")
		maxStates  = flag.Int("max-states", mcheck.DefaultMaxStates, "state-count safety valve")
		tsrf       = flag.Int("tsrf", mcheck.DefaultTSRFEntries, "per-node TSRF occupancy bound")
		violations = flag.Int("max-violations", 1, "stop after this many violations")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON on stdout")
		selftest   = flag.Bool("selftest", false, "run the mutation self-test instead of a plain check")
		mutate     = flag.String("mutate", "", "plant a cataloged bug (see protocol.Mutations) before checking")
		cxDir      = flag.String("cx-dir", "", "directory for counterexample Chrome traces (created if missing)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "piranha-mc: unexpected arguments; configuration is flag-driven")
		os.Exit(2)
	}
	if *nodes < 2 || *nodes > 4 {
		fmt.Fprintln(os.Stderr, "piranha-mc: -nodes must be 2, 3 or 4")
		os.Exit(2)
	}
	spec, _ := protocol.Lookup("piranha")
	cfg := mcheck.Config{
		Nodes: *nodes, MaxOps: *ops, MaxDepth: *depth,
		MaxStates: *maxStates, TSRFEntries: *tsrf, MaxViolations: *violations,
	}
	if msg := budgetError(cfg); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}

	if *selftest {
		os.Exit(runSelfTest(cfg, *jsonOut, *cxDir, spec.Name))
	}

	table, label := spec.Table, spec.Name
	if *mutate != "" {
		m, ok := protocol.MutationByName(*mutate)
		if !ok {
			fmt.Fprintf(os.Stderr, "piranha-mc: unknown mutation %q (cataloged:", *mutate)
			for _, m := range protocol.Mutations() {
				fmt.Fprintf(os.Stderr, " %s", m.Name)
			}
			fmt.Fprintln(os.Stderr, ")")
			os.Exit(2)
		}
		table, label = m.Apply(), spec.Name+"+"+m.Name
	}

	res := mcheck.Check(table, cfg)
	res.Protocol = label
	if *cxDir != "" {
		if err := writeNamedCounterexamples(*cxDir, label, res.Violations); err != nil {
			fmt.Fprintln(os.Stderr, "piranha-mc:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		if err := writeResultJSON(os.Stdout, res, spec); err != nil {
			fmt.Fprintln(os.Stderr, "piranha-mc:", err)
			os.Exit(2)
		}
	} else {
		report(res, spec)
	}
	if len(res.Violations) > 0 {
		os.Exit(1)
	}
}

// budgetError returns a one-line diagnostic naming the first budget flag
// that mcheck.Config would silently replace by its default (a zero) or
// its limit (an -ops or -tsrf above 255, which a state's one-byte
// counters cannot hold, or a -max-states the state numbers cannot hold),
// or misreport (a negative), and "" when every budget is usable.
func budgetError(cfg mcheck.Config) string {
	for _, b := range []struct {
		flag         string
		value, limit int
	}{
		{"ops", cfg.MaxOps, mcheck.MaxOpsLimit},
		{"tsrf", cfg.TSRFEntries, mcheck.TSRFEntriesLimit},
		{"max-states", cfg.MaxStates, mcheck.MaxStatesLimit},
		{"max-violations", cfg.MaxViolations, math.MaxInt},
	} {
		if b.value < 1 {
			return fmt.Sprintf("piranha-mc: -%s must be at least 1", b.flag)
		}
		if b.value > b.limit {
			return fmt.Sprintf("piranha-mc: -%s must be at most %d", b.flag, b.limit)
		}
	}
	if cfg.MaxDepth < 0 {
		return "piranha-mc: -depth must be 0 (no bound) or positive"
	}
	return ""
}

// report prints the human-readable summary: the exploration's scale,
// then each violation as a piranha-vet-style diagnostic followed by its
// counterexample trace.
func report(res *mcheck.Result, spec protocol.Spec) {
	scope := "bounded"
	if res.Exhausted {
		scope = "exhausted"
	}
	fmt.Printf("piranha-mc: %s, %d nodes: %d states, %d transitions, depth %d (%s)\n",
		res.Protocol, res.Nodes, res.States, res.Transitions, res.Depth, scope)
	if len(res.Violations) == 0 {
		fmt.Println("piranha-mc: no violations")
		return
	}
	diags := res.Diagnostics(spec)
	for i, v := range res.Violations {
		fmt.Println(diags[i])
		for _, s := range v.Trace {
			if s.Msg != "" {
				fmt.Printf("    n%d %s %s  [%s]\n        %s\n", s.Actor, s.Kind, s.Msg, s.Rule, s.State)
			} else {
				fmt.Printf("    n%d %s  [%s]\n        %s\n", s.Actor, s.Kind, s.Rule, s.State)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "piranha-mc: %d violation(s)\n", len(res.Violations))
}

// runSelfTest plants each cataloged bug and requires the checker to
// catch it. A clean self-test exits 0; an undetected mutation exits 1.
func runSelfTest(cfg mcheck.Config, jsonOut bool, cxDir, protoName string) int {
	if cfg.MaxViolations < 4 {
		// A planted bug may trip sibling invariants before its
		// documented one; give the expected invariant room to surface.
		cfg.MaxViolations = 4
	}
	results := mcheck.SelfTest(cfg)
	missed := 0
	for _, r := range results {
		if !r.Detected {
			missed++
		}
	}
	if cxDir != "" {
		for _, r := range results {
			if err := writeNamedCounterexamples(cxDir, protoName+"-"+r.Mutation, r.Violations); err != nil {
				fmt.Fprintln(os.Stderr, "piranha-mc:", err)
				return 2
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "piranha-mc:", err)
			return 2
		}
	} else {
		for _, r := range results {
			verdict := "DETECTED"
			if !r.Detected {
				verdict = "MISSED"
			}
			fmt.Printf("piranha-mc: selftest %-22s expect %-22s %s (%d states, depth %d)\n",
				r.Mutation, r.Expect, verdict, r.States, r.Depth)
		}
	}
	if missed > 0 {
		fmt.Fprintf(os.Stderr, "piranha-mc: %d planted bug(s) not detected\n", missed)
		return 1
	}
	return 0
}

// writeResultJSON emits the exploration result with its violations
// rendered in the same diagnostic wire shape piranha-vet -json uses, so
// downstream tooling parses findings from either command identically.
func writeResultJSON(w io.Writer, res *mcheck.Result, spec protocol.Spec) error {
	var diags bytes.Buffer
	if err := lint.WriteJSON(&diags, res.Diagnostics(spec)); err != nil {
		return err
	}
	out := struct {
		*mcheck.Result
		Diagnostics json.RawMessage `json:"diagnostics"`
	}{Result: res, Diagnostics: bytes.TrimSpace(diags.Bytes())}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeNamedCounterexamples writes one Chrome trace per violation as
// <prefix>-cx<i>-<invariant>.json under dir.
func writeNamedCounterexamples(dir, prefix string, violations []mcheck.Violation) error {
	if len(violations) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, v := range violations {
		path := filepath.Join(dir, fmt.Sprintf("%s-cx%d-%s.json", prefix, i, v.Invariant))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := mcheck.WriteCounterexample(f, prefix, v); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "piranha-mc: counterexample written to %s\n", path)
	}
	return nil
}
