package piranha

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// readGolden loads one Result JSON object per line of a
// testdata/campaign file.
func readGolden(t *testing.T, file string) []map[string]any {
	t.Helper()
	f, err := os.Open("testdata/campaign/" + file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCampaignMatchesGoldens pins the campaign runner to the Results the
// four separate grid runners it replaced (load sweep, chaos sweep,
// scaling sweep and cmd/piranha's -faults loop) produced for the same
// grids. Every field must match except the run's name, and except the
// "slo" block a former load-sweep cell gains (SLO accounting only
// observes completions, so it changes nothing simulated).
func TestCampaignMatchesGoldens(t *testing.T) {
	faults := Campaign{
		Sys:        MultiChip(2, 4),
		Work:       OLTP(),
		FaultMults: []float64{0, 1, 4},
		Plan:       FaultPlan{LinkBER: 1e-5, MsgLoss: 1e-3, MemFlip: 1e-4, MemDoubleFrac: 0.1, Mirrored: true},
		Scale:      Scale{Warm: 20, Measure: 40},
		Seed:       7,
	}
	for _, c := range []struct {
		golden string
		camp   Campaign
	}{
		{"load.jsonl", Campaign{Sys: P4(), Work: OLTP(), Loads: []float64{0.5, 1.1}, Scale: tiny, Seed: 7}},
		{"chaos.jsonl", chaosCfg()},
		{"scaling.jsonl", Campaign{Sys: P1(), Work: OLTP(), Nodes: []int{8, 32}, Scale: Scale{Warm: 1, Measure: 2}, Seed: 5}},
		{"faults.jsonl", faults},
	} {
		want := readGolden(t, c.golden)
		res := RunCampaign(c.camp)
		if len(res.Cells) != len(want) {
			t.Fatalf("%s: %d cells, golden has %d", c.golden, len(res.Cells), len(want))
		}
		for i, cell := range res.Cells {
			b, err := json.Marshal(cell.Result)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			delete(got, "name")
			delete(want[i], "name")
			if _, ok := want[i]["slo"]; !ok {
				delete(got, "slo")
			}
			if !reflect.DeepEqual(got, want[i]) {
				var diff []string
				for k := range got {
					if !reflect.DeepEqual(got[k], want[i][k]) {
						diff = append(diff, k)
					}
				}
				for k := range want[i] {
					if _, ok := got[k]; !ok {
						diff = append(diff, k)
					}
				}
				sort.Strings(diff)
				t.Errorf("%s cell %d (%s): fields differ from the golden: %v",
					c.golden, i, cell.Result.Name, diff)
			}
		}
	}
}
