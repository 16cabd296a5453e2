package main

// The live-http workload: the real-clock serving stack (gateway,
// watchdog, live cluster, CPU forward pass) driven in process through
// Gateway.Handler().ServeHTTP by an open-loop generator. Every figure
// is host (wall or CPU) time; the modelled GPU time is scaled down so
// the program's own work sets capacity.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gpufaas/internal/dataset"
	"gpufaas/internal/faas"
	"gpufaas/internal/nn"
	"gpufaas/internal/trace"
)

const (
	// liveTimeScale shrinks Table I times 1000×: a cache hit's modelled
	// GPU time is ~1 ms, well under the ~1.4–3.2 ms CPU forward pass.
	liveTimeScale = 0.001
	liveFunctions = 20
	// liveNominalRPS is the fixed rate latency is reported at, about
	// half of what two workers sustain on a two-core host (~380 rps):
	// closer to capacity the p99 is mostly queueing and swings from run
	// to run.
	liveNominalRPS = 200
	// liveSubphases splits each measured phase into equal parts whose
	// host figures are reported as a median, so a burst of interference
	// from outside the process moves one part, not the result.
	liveSubphases = 10
	// liveSaturationRequests sizes one part of the saturation phase
	// (about 1.5 s at the two-core host's ~470 rps).
	liveSaturationRequests = 700
	// liveWorkers is the generator's worker count: one per P, so the
	// benchmark never runs more goroutines than the host has cores.
	liveWorkers = 2
)

// liveModels are the three cheapest CNNs of the zoo; functions are
// dealt across them round-robin.
var liveModels = []string{"squeezenet1.1", "squeezenet1.0", "inception.v3"}

func liveFunction(i int) string { return fmt.Sprintf("fn%02d", i) }

// liveGateway is one built, deployed and warmed gateway.
type liveGateway struct {
	g   *faas.Gateway
	h   http.Handler
	ref [][]byte // per function: the predictions of its warm-up response
}

// newLiveGateway builds the paper testbed gateway (3×4 GPUs, LALBO3,
// one cell, admission off as shipped), deploys the functions over HTTP
// and invokes each once; the first response is the reference every
// later one must reproduce. The 2 s invoke timeout, hundreds of times a
// request's latency, makes a lost request fail (as a timeout) instead
// of stalling the run.
func newLiveGateway() (*liveGateway, error) {
	g, err := faas.NewGateway(faas.GatewayConfig{
		Policy:        "LALBO3",
		TimeScale:     liveTimeScale,
		InvokeTimeout: 2 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	lg := &liveGateway{g: g, h: g.Handler()}
	var rec recorder
	for i := 0; i < liveFunctions; i++ {
		spec, err := json.Marshal(faas.FunctionSpec{
			Name: liveFunction(i), GPUEnabled: true, Model: liveModels[i%len(liveModels)], BatchSize: 1,
		})
		if err != nil {
			return nil, err
		}
		rec.serve(lg.h, http.MethodPost, "/system/functions", spec)
		if rec.status != http.StatusAccepted {
			return nil, fmt.Errorf("deploy %s: HTTP %d %s", liveFunction(i), rec.status, rec.body.Bytes())
		}
	}
	for i := 0; i < liveFunctions; i++ {
		rec.serve(lg.h, http.MethodPost, "/function/"+liveFunction(i), nil)
		preds := predictionsOf(rec.body.Bytes())
		if rec.status != http.StatusOK || preds == nil {
			return nil, fmt.Errorf("warm-up %s: HTTP %d %s", liveFunction(i), rec.status, rec.body.Bytes())
		}
		lg.ref = append(lg.ref, bytes.Clone(preds))
	}
	return lg, nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// serve runs one request through the handler into the recorder.
func (r *recorder) serve(h http.Handler, method, path string, body []byte) {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the benchmark's own fixed method and path
	}
	h.ServeHTTP(r, req)
	r.WriteHeader(http.StatusOK)
}

// predictionsOf returns the bytes of the response's predictions array,
// or nil when it has none.
func predictionsOf(body []byte) []byte {
	const key = `"predictions":[`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil
	}
	rest := body[i+len(key)-1:]
	j := bytes.IndexByte(rest, ']')
	if j < 0 {
		return nil
	}
	return rest[:j+1]
}

// liveSchedule draws n function indices from a Zipf popularity over the
// functions (fn00 most popular), seeded.
func liveSchedule(rng *rand.Rand, n int) []int {
	w := trace.ZipfWeights(liveFunctions, trace.WorkloadZipfS)
	cum := make([]float64, len(w))
	sum := 0.0
	for i, x := range w {
		sum += x
		cum[i] = sum
	}
	out := make([]int, n)
	for k := range out {
		u := rng.Float64() * sum
		i := 0
		for i < len(cum)-1 && cum[i] <= u {
			i++
		}
		out[k] = i
	}
	return out
}

// liveSample is one traced request: the handler's wall time and the
// response's modelled GPU time, for the serving-stack split.
type liveSample struct {
	fn       int
	handler  time.Duration
	modelled time.Duration
}

// phase is one open-loop run, or a pool of them.
type phase struct {
	sent   int64
	lat    []float64 // served requests, due time to response, seconds
	failed map[string]int64
	late   []float64 // sends that waited for their due time: wake-up lateness, seconds
	wrong  int
	use    usage
	traced []liveSample
}

func newPhase() *phase { return &phase{failed: map[string]int64{}} }

// add pools q's requests into p.
func (p *phase) add(q *phase) {
	p.sent += q.sent
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	p.traced = append(p.traced, q.traced...)
	p.wrong += q.wrong
	for c, n := range q.failed {
		p.failed[c] += n
	}
}

func (p *phase) failedTotal() int64 {
	var n int64
	for _, c := range p.failed {
		n += c
	}
	return n
}

// openLoop sends the scheduled invocations at a fixed rate: request k
// is due k/rate after the start whether or not earlier ones finished,
// and its latency runs from that due time, so a stall charges every
// request queued behind it. An infinite rate makes every request due at
// once: the workers then send back to back (a closed loop).
func (lg *liveGateway) openLoop(fns []int, rate float64, traced bool) *phase {
	ws := make([]*phase, liveWorkers)
	var next atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	m := startMeter()
	for i := range ws {
		w := newPhase()
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec recorder
			for {
				k := next.Add(1) - 1
				if k >= int64(len(fns)) {
					return
				}
				w.sent++
				due := m.start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					w.late = append(w.late, time.Since(due).Seconds())
				}
				begin := time.Now()
				fn := fns[k]
				rec.serve(lg.h, http.MethodPost, "/function/"+liveFunction(fn), nil)
				end := time.Now()
				body := rec.body.Bytes()
				if rec.status != http.StatusOK {
					w.failed[failureCause(rec.status, string(body))]++
					continue
				}
				w.lat = append(w.lat, end.Sub(due).Seconds())
				if !bytes.Equal(predictionsOf(body), lg.ref[fn]) {
					w.wrong++
				}
				if traced {
					var r faas.InvokeResponse
					if err := json.Unmarshal(body, &r); err != nil {
						w.wrong++
						continue
					}
					w.traced = append(w.traced, liveSample{fn, end.Sub(begin), r.QueueWait + r.LoadTime + r.InferTime})
				}
			}
		}()
	}
	wg.Wait()
	p := newPhase()
	p.use = m.stop()
	for _, w := range ws {
		p.add(w)
	}
	return p
}

// runLive sets the gateway up five times (setup_s is their median),
// then measures the last one: the nominal-rate phase (latency and host
// cost per request) and the saturation phase (throughput). A traced run
// replaces the saturation phase with a traced nominal phase under a CPU
// profile and times the forward pass directly.
func runLive(seed int64, budget time.Duration, traced bool) (outcome, error) {
	var out outcome
	rng := rand.New(rand.NewSource(seed))
	var setups []time.Duration
	var lg *liveGateway
	for range 5 {
		lg = nil // let the collection below reclaim the previous gateway
		runtime.GC()
		t0 := time.Now()
		var err error
		if lg, err = newLiveGateway(); err != nil {
			return out, err
		}
		setups = append(setups, time.Since(t0))
	}
	out.attempted = int64(len(setups)) * liveFunctions

	// measure runs one phase as liveSubphases open loops of n requests.
	var all []*phase
	measure := func(rate float64, n int, traced bool) []*phase {
		var parts []*phase
		for range liveSubphases {
			p := lg.openLoop(liveSchedule(rng, n), rate, traced)
			parts = append(parts, p)
			all = append(all, p)
		}
		return parts
	}
	nominalN := int(budget.Seconds() / 2 * liveNominalRPS / liveSubphases)
	nominal := merge(measure(liveNominalRPS, nominalN, false))
	if len(nominal.lat) == 0 {
		return out, fmt.Errorf("no request served at the nominal rate (failures: %v)", nominal.failed)
	}
	out.samples = summarize(nominal.lat)
	out.e2e = map[string]float64{
		"setup_s":            medianDuration(setups),
		"cpu_ns_per_request": nominal.cpuNS,
		"allocs_per_request": nominal.allocs,
		"latency_mean_s":     out.samples.Mean,
		"latency_tail_s":     out.samples.Tail,
		"served_share":       float64(len(nominal.lat)) / float64(nominal.sent),
	}
	if !traced {
		var rps []float64
		for _, p := range measure(math.Inf(1), liveSaturationRequests, false) {
			rps = append(rps, float64(len(p.lat))/p.use.wall.Seconds())
		}
		out.e2e["throughput_rps"] = median(rps)
	} else {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, err
		}
		tp := merge(measure(liveNominalRPS, nominalN, true))
		pprof.StopCPUProfile()
		out.profile = prof.Bytes()
		layers, err := liveLayers(lg, nominal, tp)
		if err != nil {
			return out, err
		}
		out.layers = layers
	}

	for _, p := range all {
		out.attempted += p.sent
		out.failed += p.failedTotal()
		if p.wrong > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d responses differ from their function's warm-up predictions", p.wrong))
		}
	}
	return out, nil
}

// merged is one measured phase: its parts pooled, their host cost per
// served request as the median over the parts.
type merged struct {
	*phase
	cpuNS, allocs float64
}

func merge(parts []*phase) merged {
	m := merged{phase: newPhase()}
	var cpuNS, allocs []float64
	for _, p := range parts {
		m.add(p)
		if served := float64(len(p.lat)); served > 0 {
			cpuNS = append(cpuNS, float64(p.use.cpu.Nanoseconds())/served)
			allocs = append(allocs, float64(p.use.mallocs)/served)
		}
	}
	m.cpuNS, m.allocs = median(cpuNS), median(allocs)
	return m
}

// liveLayers derives the per-layer metrics of a traced run from the
// untraced nominal phase, the traced one and the gateway's counters.
func liveLayers(lg *liveGateway, nominal, tp merged) (map[string]float64, error) {
	predictNS, err := timePredict()
	if err != nil {
		return nil, err
	}
	var stack, modelled []float64
	for _, s := range tp.traced {
		m := predictNS[liveModels[s.fn%len(liveModels)]]
		stack = append(stack, float64(s.handler.Nanoseconds())-m-float64(s.modelled.Nanoseconds()))
		modelled = append(modelled, s.modelled.Seconds())
	}
	rep := lg.g.Cluster().Snapshot()
	done := float64(rep.Requests)
	layers := map[string]float64{
		"faas.stack_ns":            median(stack),
		"gpumgr.modelled_s":        median(modelled),
		"core.arena_peak_inflight": float64(lg.g.ArenaStats().PeakLive),
		"core.o3_dispatches":       float64(rep.O3Dispatches) / done,
		"core.local_queue_moves":   float64(rep.LocalQueueMoves) / done,
		"core.starved":             float64(rep.Starved) / done,
		"core.peak_local_queue":    float64(rep.PeakLocalQueue),
		"cache.miss_ratio":         rep.MissRatio,
		"cache.false_miss_ratio":   rep.FalseMissRatio,
		"gpumgr.load_fraction":     rep.LoadFraction,
		"gpumgr.sm_utilization":    rep.SMUtilization,
		"bench.generator_late_ms":  percentile(nominal.late, 99) * 1e3,
		"bench.trace_overhead":     tp.cpuNS / nominal.cpuNS,
	}
	for m, ns := range predictNS {
		layers["nn.predict_ns."+m] = ns
	}
	for _, c := range failureCauses {
		layers["faas.failed."+c] = float64(nominal.failed[c] + tp.failed[c])
	}
	for _, st := range lg.g.AdmissionStats() {
		layers["faas.admission_shed_queue_full"] += float64(st.ShedQueueFull)
		layers["faas.admission_shed_deadline"] += float64(st.ShedDeadline)
		layers["faas.admission_shed_tenant"] += float64(st.ShedTenant)
	}
	return layers, nil
}

// timePredict times nn.Network.Predict per deployed model on the batch
// every invocation carries (the first image of the evaluation pool),
// returning the median of repeated calls in nanoseconds.
func timePredict() (map[string]float64, error) {
	pool, err := dataset.EvalPool(1)
	if err != nil {
		return nil, err
	}
	imgs, err := dataset.Batch(pool, 0, 1)
	if err != nil {
		return nil, err
	}
	x, err := dataset.ToTensor(imgs, nn.InputSize)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range liveModels {
		net, err := nn.Build(m, 1)
		if err != nil {
			return nil, err
		}
		var ns []float64
		for range 41 {
			t0 := time.Now()
			if _, err := net.Predict(x); err != nil {
				return nil, err
			}
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
		out[m] = median(ns[1:]) // the first call warms the network
	}
	return out, nil
}
