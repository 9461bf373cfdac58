package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"piranha/internal/core"
	"piranha/internal/protocol"
)

// report is the metadata line printed before the result: the host, the
// code measured, and what the runs produced.
type report struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// GoLines is the repository's non-test Go line count outside the
	// benchmark (informational, not a gated metric).
	GoLines int `json:"go_lines"`
	// Digest identifies the simulated result of every run of this
	// workload and seed; TracedDigest is the traced run's.
	Digest       string `json:"digest"`
	TracedDigest string `json:"traced_digest,omitempty"`
	// Samples is the number of successful measured runs behind each
	// end-to-end median; SetupSamples the set-up repetitions behind
	// setup_s.
	Samples      int `json:"samples"`
	SetupSamples int `json:"setup_samples,omitempty"`
	// RunHostS is each measured run's reference-host seconds, RunWallS
	// its measured wall seconds.
	RunHostS []float64 `json:"run_host_s,omitempty"`
	RunWallS []float64 `json:"run_wall_s,omitempty"`
	// States is mcheck-4n's explored state count.
	States   int      `json:"states,omitempty"`
	Failures []string `json:"failures,omitempty"`
	// Attribution lists, per layer, the rig-based host µs per simulated
	// transaction beside the CPU profile's share for the same package.
	Attribution []attrRow `json:"attribution,omitempty"`
}

// attrRow is one line of the attribution cross-check.
type attrRow struct {
	Layer      string  `json:"layer"`
	USPerTx    float64 `json:"us_per_tx"`
	ShareOfRun float64 `json:"share_of_run"`
	ProfShare  float64 `json:"prof_share"`
}

func (r *report) fill(name string, env runEnv) {
	r.Workload = name
	r.Seed = env.seed
	r.NumCPU = runtime.NumCPU()
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.GoVersion = runtime.Version()
	r.Commit = gitCommit(env.root)
	r.GoLines = goLines(env.root)
}

// checker makes the measured runs of one workload and checks each
// run's output against the first.
type checker struct {
	w     *workloadDef
	seed  uint64
	table *protocol.Table // mcheck-4n's table; tests plant a mutant here
	nodes int
	depth int // the last model check's BFS depth
	rep   report
}

func newChecker(w *workloadDef, seed uint64) *checker {
	c := &checker{w: w, seed: seed, nodes: w.nodes}
	if t, err := piranhaTable(); err == nil {
		c.table = t
	}
	return c
}

// run makes one timed run of the workload and checks its output.
func (c *checker) run() (sample, error) {
	if c.w.exp == nil {
		s, _, err := c.runModel()
		return s, err
	}
	s, _, err := c.runSim(c.w.exp(c.seed))
	return s, err
}

// runSim times one core.Run of e and checks its result.
func (c *checker) runSim(e core.Experiment) (sample, core.Result, error) {
	var res core.Result
	s, err := measure(func() (float64, error) {
		var err error
		res, err = checkRun(e, c.w.verify)
		return float64(e.WarmTx + e.MeasureTx), err
	})
	if err == nil {
		err = c.same(res)
	}
	return s, res, err
}

// runModel times one mcheck.Check of the table and checks its result.
func (c *checker) runModel() (sample, int, error) {
	if c.table == nil {
		return sample{}, 0, fmt.Errorf("no protocol table")
	}
	transitions := 0
	s, err := measure(func() (float64, error) {
		res, err := checkModel(c.table, c.nodes)
		if res == nil {
			return 1, err
		}
		c.rep.States = res.States
		transitions, c.depth = res.Transitions, res.Depth
		if err == nil {
			err = c.same(res)
		}
		return float64(res.States), err
	})
	return s, transitions, err
}

// same records the first run's digest and fails any later run whose
// simulated result differs.
func (c *checker) same(v any) error {
	d, err := digest(v)
	if err != nil {
		return err
	}
	if c.rep.Digest == "" {
		c.rep.Digest = d
		return nil
	}
	if d != c.rep.Digest {
		return fmt.Errorf("simulated result digest %s differs from the first run's %s", d, c.rep.Digest)
	}
	return nil
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout without .git reports "unknown".
func gitCommit(root string) string {
	git := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(git, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(git, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// goLines counts non-test Go source lines under root, skipping hidden
// directories, testdata and the benchmark itself.
func goLines(root string) int {
	n := 0
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of an informational count
		}
		if d.IsDir() {
			base := d.Name()
			if path != root && (strings.HasPrefix(base, ".") || base == "testdata" || base == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if b, err := os.ReadFile(path); err == nil {
			n += bytes.Count(b, []byte("\n"))
		}
		return nil
	})
	return n
}
