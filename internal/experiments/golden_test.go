package experiments

// Report-equivalence goldens for hot-path refactors. The committed
// testdata/golden_reports.json was generated from the pre-refactor
// implementation (container/heap event queue, map-keyed scheduler state,
// slice-splice global queue); TestReportGolden re-runs the same cells and
// requires the marshalled Reports to be byte-identical, pinning that
// scheduler decisions, event ordering and every derived metric survived
// the optimization unchanged. Cells cover all three policies at the
// paper's hardest working set plus churn-heavy elasticity runs (GPUs
// provisioned and drain-decommissioned mid-trace under both autoscale
// policies), and one fleet-scale streaming cell whose global queue
// grows to ~200 entries, pinning the per-model position index at
// scale.
//
// Regenerate (only when an intentional behavior change lands) with:
//
//	go test ./internal/experiments -run TestReportGolden -update-golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_reports.json")

// goldenSpecs returns the pinned cells: LB/LALB/LALBO3 at working set 35,
// one autoscaled run per policy flavor (diurnal/target-util and
// burst/step), which exercise elastic membership churn, and one
// mixed-fleet tiered-autoscale run pinning heterogeneous membership
// (per-type profiles, classed scale events, cost accounting), and one
// shortened 256-GPU scale cell (streaming replay, queue depth ~200).
func goldenSpecs() []Spec {
	var specs []Spec
	for _, pol := range PaperPolicies {
		specs = append(specs, Spec{
			Name:   fmt.Sprintf("golden/%v/ws=35", pol),
			Params: RunParams{Policy: pol, WorkingSet: 35},
		})
	}
	for _, s := range ElasticitySpecs(true) {
		switch s.Name {
		case "elasticity/diurnal/autoscale/target-util", "elasticity/burst/autoscale/step":
			specs = append(specs, s)
		}
	}
	for _, s := range HeterogeneitySpecs(true) {
		if s.Name == "heterogeneity/diurnal/"+FleetMixedTiered {
			specs = append(specs, s)
		}
	}
	for _, s := range ScaleSpecs(true) {
		if s.Name == "scale/gpus=256/min=12" {
			s.Name = "golden/scale/gpus=256/min=2"
			s.Params.Workload.Minutes = 2
			specs = append(specs, s)
		}
	}
	return specs
}

// goldenEntry is one named report; a slice (not a map) keeps the JSON
// rendering order-stable so the comparison can be byte-for-byte.
type goldenEntry struct {
	Name string
	Row  Row
}

func TestReportGolden(t *testing.T) {
	specs := goldenSpecs()
	if len(specs) != 7 {
		t.Fatalf("golden cells = %d, want 7 (did an elasticity/heterogeneity/scale spec get renamed?)", len(specs))
	}
	entries := make([]goldenEntry, 0, len(specs))
	for _, s := range specs {
		row, err := Run(s.Params)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		entries = append(entries, goldenEntry{Name: s.Name, Row: row})
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	path := filepath.Join("testdata", "golden_reports.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Locate the first diverging cell for a readable failure.
		var wantEntries []goldenEntry
		if err := json.Unmarshal(want, &wantEntries); err == nil && len(wantEntries) == len(entries) {
			for i := range entries {
				g, _ := json.Marshal(entries[i])
				w, _ := json.Marshal(wantEntries[i])
				if !bytes.Equal(g, w) {
					t.Errorf("report diverged at %s:\n got: %s\nwant: %s", entries[i].Name, g, w)
				}
			}
		}
		t.Fatal("reports are not byte-identical to the pre-refactor golden")
	}
}
