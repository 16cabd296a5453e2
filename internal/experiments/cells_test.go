package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gpufaas/internal/multicell"
)

// cellTestParams is a small multi-cell workload: 16 GPUs over 4 nodes,
// two trace minutes, streaming replay.
func cellTestParams() RunParams {
	p := cellRunParams(16)
	p.Workload.Minutes = 2
	p.Workload.RequestsPerMinute = 300
	return p
}

// TestCellsGoldenEquivalenceK1 pins the tentpole's compatibility claim
// directly against the committed goldens: a K=1 multi-cell run of every
// golden cell — through the router, the cell filter and the
// per-cell replay — must reproduce testdata/golden_reports.json byte for
// byte. Cells replay the way their golden was recorded: materialized,
// or through the streaming injector for the streaming scale cell (whose
// report carries the streaming counters).
func TestCellsGoldenEquivalenceK1(t *testing.T) {
	specs := goldenSpecs()
	entries := make([]goldenEntry, 0, len(specs))
	for _, s := range specs {
		res, err := RunCells(CellParams{Run: s.Params, Cells: 1, Materialize: !s.Params.Streaming})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		wp := s.Params.Workload
		if wp.Minutes == 0 {
			wp = DefaultWorkload(s.Params.WorkingSet)
		}
		rep := res.Cells[0].Report
		entries = append(entries, goldenEntry{
			Name: s.Name,
			Row:  Row{Policy: rep.Policy, WorkingSet: wp.WorkingSet, Report: rep},
		})
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "golden_reports.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		var wantEntries []goldenEntry
		if err := json.Unmarshal(want, &wantEntries); err == nil && len(wantEntries) == len(entries) {
			for i := range entries {
				g, _ := json.Marshal(entries[i])
				w, _ := json.Marshal(wantEntries[i])
				if !bytes.Equal(g, w) {
					t.Errorf("K=1 cell report diverged at %s:\n got: %s\nwant: %s", entries[i].Name, g, w)
				}
			}
		}
		t.Fatal("K=1 multi-cell reports are not byte-identical to the single-cluster goldens")
	}
}

// TestCellMergeCorrectness pins the merge semantics against a
// materialized split of the same run: merged counters equal the sum of
// the per-cell reports, no request is lost or double-routed, and the
// merged percentiles equal the percentiles of the concatenated per-cell
// samples.
func TestCellMergeCorrectness(t *testing.T) {
	p := cellTestParams()
	res, err := RunCells(CellParams{Run: p, Cells: 4, Router: multicell.RouteHash, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Merged

	var sumReq, sumFailed, sumMisses, sumMoves, sumRouted int64
	var sumGPUSeconds float64
	var latencies []float64
	for _, c := range res.Cells {
		sumReq += c.Report.Requests
		sumFailed += c.Report.Failed
		sumMisses += c.Report.Misses
		sumMoves += c.Report.LocalQueueMoves
		sumGPUSeconds += c.Report.GPUSeconds
		sumRouted += c.Routed
		latencies = append(latencies, c.Stats.Latencies...)
	}
	if m.Requests != sumReq || m.Failed != sumFailed || m.Misses != sumMisses || m.LocalQueueMoves != sumMoves {
		t.Errorf("merged counters != per-cell sums: merged=%+v", m)
	}
	if sumGPUSeconds != m.GPUSeconds {
		t.Errorf("GPUSeconds = %v, want %v", m.GPUSeconds, sumGPUSeconds)
	}

	// Conservation: the router split the full stream with no loss and
	// no duplication.
	total := int64(2 * 300) // minutes × requests/minute
	if sumRouted != total {
		t.Errorf("routed %d requests, workload has %d", sumRouted, total)
	}
	if m.Requests+m.Failed != total {
		t.Errorf("completed+failed = %d, want %d", m.Requests+m.Failed, total)
	}

	if int64(len(latencies)) != m.Requests {
		t.Fatalf("latency sample size %d != completed %d", len(latencies), m.Requests)
	}
	if m.CellSpread.MinRequests > m.CellSpread.MaxRequests {
		t.Errorf("inverted spread: %+v", m.CellSpread)
	}
}

// TestRunCellsWorkerCountDeterminism is the in-repo half of the CI
// determinism gate: the same multi-cell configuration must produce
// byte-identical results at any worker count, in streaming mode, for
// every router policy.
func TestRunCellsWorkerCountDeterminism(t *testing.T) {
	p := cellTestParams()
	for _, pol := range multicell.RouterPolicies {
		marshal := func(workers int) []byte {
			res, err := RunCells(CellParams{Run: p, Cells: 4, Router: pol, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", pol, workers, err)
			}
			res.WallSeconds = 0 // the one volatile field
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if serial, pooled := marshal(1), marshal(4); !bytes.Equal(serial, pooled) {
			t.Errorf("%v: results differ between workers=1 and workers=4", pol)
		}
	}
}

// TestRunCellsStreamingMatchesMaterialized pins that the two replay
// modes agree on everything but the streaming counters for a
// non-autoscaled cell config (the same equivalence the single-cluster
// stream test pins).
func TestRunCellsStreamingMatchesMaterialized(t *testing.T) {
	p := cellTestParams()
	run := func(materialize bool) multicell.MergedReport {
		res, err := RunCells(CellParams{Run: p, Cells: 2, Router: multicell.RouteLeastLoaded, Materialize: materialize})
		if err != nil {
			t.Fatal(err)
		}
		return res.Merged
	}
	streamed, materialized := run(false), run(true)
	if streamed.Streaming == nil {
		t.Fatal("streaming run carries no streaming stats")
	}
	streamed.Streaming = nil
	// The event queue peaks differently by construction: materialized
	// replay heaps the whole trace at t=0, streaming one minute at a
	// time (that bound is the point of streaming).
	streamed.MaxEventQueueLen, materialized.MaxEventQueueLen = 0, 0
	a, _ := json.Marshal(streamed)
	b, _ := json.Marshal(materialized)
	if !bytes.Equal(a, b) {
		t.Errorf("streamed != materialized:\n%s\n%s", a, b)
	}
}

// TestRunCellsRejectsBadShard pins the partition guardrails.
func TestRunCellsRejectsBadShard(t *testing.T) {
	p := cellTestParams() // 4 nodes
	if _, err := RunCells(CellParams{Run: p, Cells: 8}); err == nil {
		t.Error("sharding 4 nodes into 8 cells should fail")
	}
	if _, err := RunCells(CellParams{Run: p, Cells: 0}); err == nil {
		t.Error("0 cells should fail")
	}
}
