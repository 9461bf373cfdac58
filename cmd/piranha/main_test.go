package main

import "testing"

// TestFlagConflict: every flag a mode would silently ignore is refused
// with a message naming it and the mode, and the flags each mode honors
// pass.
func TestFlagConflict(t *testing.T) {
	cases := []struct {
		flags []string
		want  string // "" when the combination is accepted
	}{
		{[]string{"scaling-sweep", "faults"}, "-faults has no effect with -scaling-sweep"},
		{[]string{"scaling-sweep", "arrivals"}, "-arrivals has no effect with -scaling-sweep"},
		{[]string{"scaling-sweep", "load-sweep"}, "-load-sweep has no effect with -scaling-sweep"},
		{[]string{"scaling-sweep", "trace"}, "-trace has no effect with -scaling-sweep"},
		{[]string{"scaling-sweep", "intervals"}, "-intervals has no effect with -scaling-sweep"},
		{[]string{"load-sweep", "trace"}, "-trace has no effect with -load-sweep"},
		{[]string{"load-sweep", "faults", "trace"}, "-trace has no effect with -load-sweep"},
		{[]string{"scale-cpus"}, "-scale-cpus has no effect without -scaling-sweep"},
		{[]string{"config", "load-sweep", "scale-cpus"}, "-scale-cpus has no effect without -scaling-sweep"},

		{nil, ""},
		{[]string{"scaling-sweep", "scale-cpus", "workload", "warm", "tx", "seed", "parallel", "json"}, ""},
		{[]string{"load-sweep", "faults", "fault-grid", "arrivals", "intervals", "json"}, ""},
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
