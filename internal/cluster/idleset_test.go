package cluster

import (
	"slices"
	"testing"
	"time"

	"gpufaas/internal/chaos"
	"gpufaas/internal/core"
	"gpufaas/internal/sim"
)

// checkIdleSet requires the cluster's incremental idle set to equal
// exactly the schedulable members that are not executing: provisioning
// GPUs (inside their cold start) are excluded, draining ones included
// while idle. The scheduler reads the idle set without re-probing Busy,
// so any drift here would dispatch onto a busy or departed GPU.
func checkIdleSet(t *testing.T, c *Cluster, event uint64) {
	t.Helper()
	var want []string
	for _, id := range c.GPUIDs() {
		if c.gpuState[id] == gpuProvisioning || c.devByID[id].Busy() {
			continue
		}
		want = append(want, id)
	}
	if got := c.IdleGPUs(); !slices.Equal(got, want) {
		t.Fatalf("after event %d (t=%v): idle set %v, want active non-busy members %v",
			event, c.Engine().Now(), got, want)
	}
}

// TestIdleSetTracksMembershipAndBusy drives a small fleet through
// elastic churn (immediate and cold-start adds, drain decommissions of
// busy GPUs) and chaos (scripted crashes with MTTR replacement plus a
// direct FailGPU), stepping the engine one event at a time and checking
// the idle-set invariant after every event.
func TestIdleSetTracksMembershipAndBusy(t *testing.T) {
	const offered = 120
	cfg := testConfig(core.LALBO3)
	cfg.Nodes, cfg.GPUsPerNode = 2, 2
	cfg.MaxBatch = 2
	cfg.Retry = core.RetryPolicy{MaxAttempts: 3}
	cfg.Chaos = &chaos.Config{
		Seed: 3,
		MTTR: 2 * time.Second,
		Script: []chaos.Fault{
			{At: 4 * time.Second, Ord: 1, Kind: chaos.Crash},
			{At: 6 * time.Second, Ord: 3, Kind: chaos.Crash},
		},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := c.Engine()
	at := func(d time.Duration, name string, fn func()) {
		if _, err := e.At(sim.Time(d), name, func(sim.Time) { fn() }); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range tinyWorkload(offered, 100*time.Millisecond, "resnet18", "vgg19", "alexnet") {
		req := &core.Request{ID: r.ID, Function: r.Function, Model: r.Model,
			BatchSize: r.BatchSize, Arrival: sim.Time(r.Arrival)}
		at(r.Arrival, "test.arrival", func() {
			if err := c.Submit(req); err != nil {
				t.Errorf("submit %d: %v", req.ID, err)
			}
		})
	}
	var hot, cold string
	drained := 0 // decommissions that entered a real drain (GPU was busy)
	drain := func(id string) {
		if err := c.DecommissionGPU(id, true); err != nil {
			t.Error(err)
		}
		if c.gpuState[id] == gpuDraining {
			drained++
		}
	}
	at(1*time.Second, "test.add", func() {
		if hot, err = c.AddGPU("", 0); err != nil {
			t.Error(err)
		}
	})
	at(2*time.Second, "test.addCold", func() {
		if cold, err = c.AddGPU("", 1500*time.Millisecond); err != nil {
			t.Error(err)
		}
	})
	at(3*time.Second, "test.drain", func() { drain("node0/gpu0") })
	at(5*time.Second, "test.drainAdded", func() { drain(hot) })
	at(7*time.Second, "test.fail", func() {
		if err := c.FailGPU("node1/gpu0"); err != nil {
			t.Error(err)
		}
	})

	var event uint64
	checkIdleSet(t, c, event)
	for e.Step() {
		event++
		checkIdleSet(t, c, event)
	}

	if c.sched.PendingTotal() != 0 {
		t.Fatalf("%d requests still pending after drain", c.sched.PendingTotal())
	}
	rep := c.Snapshot()
	if rep.Requests+rep.Failed != offered {
		t.Fatalf("conservation violated: %d completed + %d failed != %d offered", rep.Requests, rep.Failed, offered)
	}
	// The scenario must have exercised what it claims: three crashes,
	// two real drains that finished, and the cold-start GPU activated
	// and stayed.
	if rep.Failures != 3 {
		t.Errorf("Failures = %d, want 2 scripted + 1 direct", rep.Failures)
	}
	if rep.Interrupted == 0 {
		t.Error("crashes under load interrupted nothing")
	}
	ids := c.GPUIDs()
	if slices.Contains(ids, "node0/gpu0") || slices.Contains(ids, hot) {
		t.Errorf("drained GPUs still members: %v", ids)
	}
	if !slices.Contains(ids, cold) || c.gpuState[cold] != gpuActive {
		t.Errorf("cold-start GPU %s not active at the end: members %v", cold, ids)
	}
	if drained != 2 {
		t.Errorf("%d of 2 decommissions found the GPU busy and drained it", drained)
	}
}
