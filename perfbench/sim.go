package main

// The simulator workloads: streaming trace replays through
// cluster.RunWorkloadStream on a fresh cluster with empty GPU caches.
// Host figures (throughput, CPU, allocations) are measured around the
// replay call; latency and every per-layer count are modelled (sim)
// time and repeat exactly for a seed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"gpufaas/internal/cluster"
	"gpufaas/internal/experiments"
	"gpufaas/internal/models"
	"gpufaas/internal/obs"
	"gpufaas/internal/trace"
)

// simWorkload is one streaming-replay shape. Every shape runs LALBO3
// on a homogeneous fleet of nodes × 4 GPUs at the paper's operating
// point of 325 requests/minute per 12 GPUs, flat load, one cell.
type simWorkload struct {
	nodes      int
	workingSet int
	minutes    int
}

func (w simWorkload) gpus() int { return w.nodes * 4 }

func (w simWorkload) params(seed int64) experiments.WorkloadParams {
	return experiments.WorkloadParams{
		Minutes:           w.minutes,
		RequestsPerMinute: w.gpus() * 325 / 12,
		WorkingSet:        w.workingSet,
		Batch:             models.EvalBatchSize,
		Seed:              seed,
	}
}

// timedSource is the trace stream with each Next call timed.
type timedSource struct {
	src   cluster.ArrivalSource
	spent time.Duration
}

func (t *timedSource) Next() ([]trace.Request, bool) {
	t0 := time.Now()
	b, ok := t.src.Next()
	t.spent += time.Since(t0)
	return b, ok
}

// simReplay is one replay's measurements.
type simReplay struct {
	setup   time.Duration
	use     usage
	offered int64
	rep     cluster.Report
	fired   uint64
	lat     []float64
	raw     *obs.RawBreakdown
	nextNS  float64 // traced replays: Next time per offered request
	finger  string  // sim-time fingerprint, equal for every replay of a seed
}

// replay builds the workload and cluster (the set-up), then runs the
// stream to drain. traced adds the latency decomposition and times the
// trace stream.
func (w simWorkload) replay(seed int64, traced bool) (simReplay, error) {
	var r simReplay
	runtime.GC()
	t0 := time.Now()
	built, err := experiments.StreamWorkload(w.params(seed), models.Default(), 0)
	if err != nil {
		return r, err
	}
	cfg := cluster.DefaultConfig()
	cfg.Nodes, cfg.GPUsPerNode = w.nodes, 4
	cfg.Zoo = built.Zoo
	if traced {
		cfg.Obs = obs.Options{Breakdown: true}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return r, err
	}
	c.TrackModel(built.TopModel)
	r.setup = time.Since(t0)
	r.offered = built.Stream.Total()

	var src cluster.ArrivalSource = built.Stream
	timed := &timedSource{src: built.Stream}
	if traced {
		src = timed
	}
	runtime.GC()
	m := startMeter()
	rep, err := c.RunWorkloadStream(src)
	r.use = m.stop()
	if err != nil {
		return r, err
	}
	r.rep = rep
	r.fired = c.Engine().Fired()
	rs := c.RunStats()
	r.lat, r.raw = rs.Latencies, rs.Breakdown
	if traced && r.offered > 0 {
		r.nextNS = float64(timed.spent.Nanoseconds()) / float64(r.offered)
	}
	fp := rep
	fp.Breakdown = nil // present only in traced replays; checked equal via the rest
	b, err := json.Marshal(fp)
	if err != nil {
		return r, err
	}
	r.finger = fmt.Sprintf("%s events=%d maxq=%d peaklocal=%d", b, r.fired, rep.MaxEventQueueLen, rep.PeakLocalQueue)
	return r, nil
}

// check applies the per-replay correctness rules: conservation and a
// clean arena drain.
func (r simReplay) check() []string {
	var bad []string
	if got := r.rep.Requests + r.rep.Failed; got != r.offered {
		bad = append(bad, fmt.Sprintf("completed %d + failed %d != offered %d", r.rep.Requests, r.rep.Failed, r.offered))
	}
	if st := r.rep.Streaming; st == nil || st.FinalLive != 0 || st.Requests != r.offered {
		bad = append(bad, fmt.Sprintf("streaming stats %+v: want FinalLive 0 and Requests %d", st, r.offered))
	}
	return bad
}

// runSim replays the workload until the budget is spent (at least three
// times, so every host figure is a median), and in a traced run spends
// half the budget on traced replays under a CPU profile.
func runSim(w simWorkload, seed int64, budget time.Duration, traced bool) (outcome, error) {
	var out outcome
	var plain, tr []simReplay
	timedBudget := budget
	if traced {
		timedBudget = budget / 2
	}
	var spent time.Duration
	for len(plain) < 3 || spent < timedBudget {
		r, err := w.replay(seed, false)
		if err != nil {
			return out, err
		}
		plain = append(plain, r)
		spent += r.use.wall
	}
	if traced {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, err
		}
		spent = 0
		for len(tr) < 1 || spent < budget-timedBudget {
			r, err := w.replay(seed, true)
			if err != nil {
				pprof.StopCPUProfile()
				return out, err
			}
			tr = append(tr, r)
			spent += r.use.wall
		}
		pprof.StopCPUProfile()
		out.profile = prof.Bytes()
	}

	all := append(append([]simReplay(nil), plain...), tr...)
	for _, r := range all {
		out.attempted += r.offered
		out.failed += r.rep.Failed
		out.problems = append(out.problems, r.check()...)
		if r.finger != all[0].finger {
			out.problems = append(out.problems, "sim-time results differ between replays of one seed")
		}
	}

	first := plain[0]
	lat := summarize(first.lat)
	out.samples = lat
	var setup []time.Duration
	var rps, cpuNS, allocs []float64
	for _, r := range plain {
		setup = append(setup, r.setup)
		done := float64(r.rep.Requests)
		rps = append(rps, done/r.use.wall.Seconds())
		cpuNS = append(cpuNS, float64(r.use.cpu.Nanoseconds())/done)
		allocs = append(allocs, float64(r.use.mallocs)/done)
	}
	out.e2e = map[string]float64{
		"throughput_rps":     median(rps),
		"setup_s":            medianDuration(setup),
		"cpu_ns_per_request": median(cpuNS),
		"allocs_per_request": median(allocs),
		"latency_mean_s":     lat.Mean,
		"latency_tail_s":     lat.Tail,
		"served_share":       float64(first.rep.Requests) / float64(first.offered),
	}
	if !traced {
		return out, nil
	}

	t := tr[0]
	rep := t.rep
	done := float64(rep.Requests)
	var trCPU, nextNS []float64
	for _, r := range tr {
		trCPU = append(trCPU, float64(r.use.cpu.Nanoseconds())/float64(r.rep.Requests))
		nextNS = append(nextNS, r.nextNS)
	}
	out.layers = map[string]float64{
		"sim.events_per_request":     float64(t.fired) / done,
		"sim.max_event_queue":        float64(rep.MaxEventQueueLen),
		"trace.ns_per_request":       median(nextNS),
		"core.arena_peak_inflight":   float64(rep.Streaming.PeakInflight),
		"cache.miss_ratio":           rep.MissRatio,
		"cache.false_miss_ratio":     rep.FalseMissRatio,
		"cache.top_model_duplicates": rep.TopModelDuplicates,
		"core.o3_dispatches":         float64(rep.O3Dispatches) / done,
		"core.local_queue_moves":     float64(rep.LocalQueueMoves) / done,
		"core.starved":               float64(rep.Starved) / done,
		"core.peak_local_queue":      float64(rep.PeakLocalQueue),
		"gpumgr.load_fraction":       rep.LoadFraction,
		"gpumgr.sm_utilization":      rep.SMUtilization,
		"bench.trace_overhead":       median(trCPU) / median(cpuNS),
	}
	q, l, s := phaseSamples(t.raw)
	out.layers["obs.queue_p999_s"] = percentile(q, 99.9)
	out.layers["obs.load_p999_s"] = percentile(l, 99.9)
	out.layers["obs.service_p999_s"] = percentile(s, 99.9)
	return out, nil
}

// phaseSamples unpacks the raw decomposition into whole-population
// queue, load and service samples (a hit's load is zero).
func phaseSamples(raw *obs.RawBreakdown) (queue, load, service []float64) {
	queue = append(append(queue, raw.QueueHit...), raw.QueueMiss...)
	load = append(make([]float64, len(raw.QueueHit)), raw.LoadMiss...)
	service = append(append(service, raw.ServiceHit...), raw.ServiceMiss...)
	return queue, load, service
}
