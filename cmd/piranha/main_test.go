package main

import (
	"math"
	"testing"
)

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
