package experiments

import (
	"reflect"
	"testing"
)

// TestScaleSweepDeterministic pins the worker-count contract for the
// streaming scale grid: byte-identical rows whether the cells run
// serially or fanned out.
func TestScaleSweepDeterministic(t *testing.T) {
	serial, err := ScaleSweep(Matrix{Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := ScaleSweep(Matrix{Workers: 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatalf("scale rows differ across worker counts:\nserial: %+v\nfanned: %+v", serial, fanned)
	}
	if len(serial) == 0 {
		t.Fatal("no scale rows")
	}
	for _, r := range serial {
		if r.Requests == 0 || r.AvgLatencySec <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.OrdBound != r.Fleet {
			t.Errorf("fleet %d: OrdBound %d (fixed fleets assign exactly one ordinal per GPU)", r.Fleet, r.OrdBound)
		}
	}
}

// TestScaleSweepArenaBounded is the O(in-flight) acceptance check: the
// arena's fresh allocations equal the peak in-flight population and do
// not grow with the trace length — tripling the minutes must leave the
// allocation count unchanged (the steady-state in-flight set is fixed
// by arrival rate and service times).
func TestScaleSweepArenaBounded(t *testing.T) {
	cell := func(minutes int) ScaleRow {
		t.Helper()
		specs := ScaleSpecs(true)
		p := specs[0].Params // 64-GPU cell
		p.Workload.Minutes = minutes
		row, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if row.Streaming == nil {
			t.Fatal("streaming run reported no stream stats")
		}
		return ScaleRow{
			Minutes:        minutes,
			Requests:       row.Requests,
			PeakInflight:   row.Streaming.PeakInflight,
			ArenaAllocated: row.Streaming.ArenaAllocated,
			ArenaReused:    row.Streaming.ArenaReused,
		}
	}
	short, long := cell(6), cell(18)
	if long.Requests < 2*short.Requests {
		t.Fatalf("trace scaling broken: %d requests at 18 min vs %d at 6", long.Requests, short.Requests)
	}
	if short.ArenaAllocated != short.PeakInflight || long.ArenaAllocated != long.PeakInflight {
		t.Errorf("arena allocations should equal peak in-flight: short %+v long %+v", short, long)
	}
	if long.ArenaAllocated > short.ArenaAllocated+short.ArenaAllocated/10 {
		t.Errorf("peak allocation grew with trace length: %d at 18 min vs %d at 6 min",
			long.ArenaAllocated, short.ArenaAllocated)
	}
	if long.ArenaAllocated+long.ArenaReused != long.Requests {
		t.Errorf("arena accounting: %d allocated + %d reused != %d requests",
			long.ArenaAllocated, long.ArenaReused, long.Requests)
	}
}
