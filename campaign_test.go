package piranha

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
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
		res := mustCampaign(t, c.camp)
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

// mustCampaign runs c and fails the test on an error.
func mustCampaign(t *testing.T, c Campaign) CampaignResult {
	t.Helper()
	res, err := RunCampaign(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCampaignRejectsOutOfDomainLoad: a load point whose calibrated rate
// falls outside the arrival domain is an error naming the cell, returned
// before any cell runs, not a panic inside the run.
func TestCampaignRejectsOutOfDomainLoad(t *testing.T) {
	res, err := RunCampaign(Campaign{Sys: P1(), Work: OLTP(), Loads: []float64{0.5, 1e-6},
		Scale: Scale{Warm: 5, Measure: 10}})
	if err == nil {
		t.Fatal("a 1e-6x load point ran")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "campaign cell oltp@1e-06x: ") || !strings.Contains(msg, "arrival rate") {
		t.Fatalf("error %q does not name the cell and its rate", msg)
	}
	if len(res.Cells) != 0 {
		t.Fatalf("%d cells ran before the error", len(res.Cells))
	}
}

// TestMarkSaturationNeedsBackedUpWork: a throughput shortfall marks a
// point only while work backs up (mean depth at least 1, or sheds); the
// p99 rule still marks a row that keeps up.
func TestMarkSaturationNeedsBackedUpWork(t *testing.T) {
	cell := func(offered, achieved, depth, shed, p99 float64) CampaignCell {
		return CampaignCell{OfferedTxS: offered, AchievedTxS: achieved, MeanDepth: depth, ShedRate: shed, P99Ns: p99}
	}
	for _, c := range []struct {
		name string
		row  []CampaignCell
		want int // index of the marked point, -1 for none
	}{
		{"short-run noise, then a queue", []CampaignCell{cell(100, 90, 0, 0, 1), cell(200, 150, 40, 0, 2)}, 1},
		{"shortfall with sheds", []CampaignCell{cell(100, 99, 0.2, 0, 1), cell(200, 150, 0.5, 0.1, 2)}, 1},
		{"shortfall with a standing queue", []CampaignCell{cell(100, 90, 1, 0, 1), cell(200, 190, 9, 0, 2)}, 0},
		{"keeps up, p99 blows", []CampaignCell{cell(100, 99, 0, 0, 1), cell(200, 199, 3, 0, 6)}, 1},
		{"no knee", []CampaignCell{cell(100, 90, 0, 0, 1), cell(200, 199, 3, 0, 2)}, -1},
	} {
		markSaturation(c.row)
		got := slices.IndexFunc(c.row, func(x CampaignCell) bool { return x.Saturated })
		if got != c.want {
			t.Errorf("%s: marked point %d, want %d", c.name, got, c.want)
		}
	}
}

// TestChaosSurfaceMarksTheKnee runs the composed campaign of
// examples/chaos. Fault-free, 0.5x trails its offered rate by 6% over 60
// transactions with an empty queue, and 1.1x queues 45 deep: the knee is
// 1.1x. With node 1's death, 0.5x already queues about 10 deep and is
// the knee. Achieved throughput and queue depths are pinned so a change
// in the simulation cannot pass as a change in the rule.
func TestChaosSurfaceMarksTheKnee(t *testing.T) {
	work := OLTP()
	work.Arrivals = Arrivals{Capacity: 256, RetryBudget: 2}
	res := mustCampaign(t, Campaign{
		Sys:        MultiChip(2, 4),
		Work:       work,
		Loads:      []float64{0.5, 1.1},
		FaultMults: []float64{0, 1},
		Plan: FaultPlan{MsgLoss: 1e-4, Mirrored: true,
			FailStop: []NodeFailure{{Node: 1, At: 100 * Microsecond}}},
		Scale: Scale{Warm: 30, Measure: 60},
		Seed:  7,
	})
	for i, want := range []struct {
		achieved, depth float64
		saturated       bool
	}{
		{43801, 0.00, false},
		{93373, 44.65, true},
		{24040, 9.90, true},
		{33463, 104.86, false},
	} {
		c := res.Cells[i]
		if math.Round(c.AchievedTxS) != want.achieved || math.Round(c.MeanDepth*100)/100 != want.depth {
			t.Fatalf("cell %d (x%g, %gx): achieved %.0f tx/s, depth %.2f; want %.0f, %.2f",
				i, c.FaultMult, c.Load, c.AchievedTxS, c.MeanDepth, want.achieved, want.depth)
		}
		if c.Saturated != want.saturated {
			t.Errorf("cell %d (x%g, %gx): saturated %v, want %v", i, c.FaultMult, c.Load, c.Saturated, want.saturated)
		}
	}
}
