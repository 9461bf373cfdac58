package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestOutOfDomainLoadExits2: a campaign load point whose calibrated rate
// falls outside the arrival domain (here 1e-6 of capacity, about 0.013
// tx/s) is reported in one line naming the cell, with the usage status
// 2, before any cell runs. The test re-runs its own binary as the
// command: arguments after "--" go to main.
func TestOutOfDomainLoadExits2(t *testing.T) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append([]string{"piranha"}, os.Args[i+1:]...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOutOfDomainLoadExits2$", "--",
		"-config", "p1", "-load-sweep", "1e-6", "-warm", "5", "-tx", "10")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit %v, want status 2; stderr:\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "campaign cell oltp@1e-06x: ") ||
		!strings.Contains(lines[0], "arrival rate 0.0") {
		t.Fatalf("stderr %q, want one line naming the cell and its rate", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("a rejected campaign printed %q", stdout.String())
	}
}

// TestFlagConflict: every flag a mode would silently ignore is refused
// with a message naming it and the mode, and the flags each mode honors
// pass.
func TestFlagConflict(t *testing.T) {
	cases := []struct {
		flags []string
		want  string // "" when the combination is accepted
	}{
		{[]string{"scaling-sweep", "chips"}, "-chips has no effect with -scaling-sweep (it sets the chip count)"},
		{[]string{"fault-grid"}, "-fault-grid has no effect without -faults"},
		{[]string{"load-sweep", "fault-grid"}, "-fault-grid has no effect without -faults"},

		{nil, ""},
		{[]string{"scaling-sweep", "config", "faults", "fault-grid", "arrivals", "load-sweep",
			"trace", "intervals", "v", "workload", "warm", "tx", "seed", "parallel", "json"}, ""},
		{[]string{"load-sweep", "faults", "fault-grid", "arrivals", "intervals", "trace", "json"}, ""},
		{[]string{"config", "chips", "faults", "arrivals", "trace", "intervals", "v"}, ""},
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range c.flags {
			set[f] = true
		}
		if got := flagConflict(set); got != c.want {
			t.Errorf("%v: got %q, want %q", c.flags, got, c.want)
		}
	}
}

// FuzzParseFaultPlan: the -faults grammar never panics, and every plan
// it accepts has finite rates inside [0, 1] and no negative time.
func FuzzParseFaultPlan(f *testing.F) {
	for _, s := range []string{
		"default",
		"ber=1e-5,loss=1e-4,memflip=1e-4,double=0.1,stall=1e-6,mirror",
		"loss=1e-4,failstop=1@10us,failstop=0@1ms,detect=2us,redispatch=5us,mirror",
		"ber=NaN", "loss=+Inf", "memflip=-1", "double=2",
		"failstop=-1@1us", "failstop=1@-1us", "failstop=1", "detect=-5us", "redispatch=x",
		"bogus=1", "mirror,,", "=",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := parseFaultPlan(s)
		if err != nil {
			return
		}
		for _, x := range []float64{p.LinkBER, p.MsgLoss, p.MemFlip, p.MemDoubleFrac, p.StallProb} {
			if math.IsNaN(x) || x < 0 || x > 1 {
				t.Fatalf("%q: accepted rate %v", s, x)
			}
		}
		if p.DetectLatency < 0 || p.RedispatchPenalty < 0 {
			t.Fatalf("%q: accepted a negative duration", s)
		}
		for _, fs := range p.FailStop {
			if fs.Node < 0 || fs.At < 0 {
				t.Fatalf("%q: accepted fail-stop %+v", s, fs)
			}
		}
	})
}
