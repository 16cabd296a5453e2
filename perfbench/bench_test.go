package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1_000_000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 1000 || s.TailPct != 99 || s.Mean != 500.5 || s.P50 != 500.5 || math.Abs(s.Tail-990.01) > 1e-9 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
}

func TestFailureCause(t *testing.T) {
	for _, c := range []struct {
		status int
		body   string
		want   string
	}{
		{500, `{"error":"core: out-of-order enqueue: 1.5ms after 1.6ms"}`, causeOutOfOrder},
		{500, `{"error":"core: out-of-order enqueue: 7ms after 9ms"}`, causeOutOfOrder},
		{429, `{"error":"faas: shed (queue_full)"}`, causeShed},
		{500, `{"error":"faas: inference 12 timed out after 2s"}`, causeTimeout},
		{404, `{"error":"faas: not found: fn99"}`, causeOther},
	} {
		if got := failureCause(c.status, c.body); got != c.want {
			t.Errorf("failureCause(%d, %s) = %q, want %q", c.status, c.body, got, c.want)
		}
	}
}

// fakeGateway serves every invocation after a fixed delay; every
// failEvery-th call (if > 0) fails the way the arrival-order race does.
func fakeGateway(delay time.Duration, failEvery int64, preds string) *liveGateway {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		if n := calls.Add(1); failEvery > 0 && n%failEvery == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"core: out-of-order enqueue: 2ms after 3ms"}`))
			return
		}
		w.Write([]byte(`{"predictions":` + preds + `,"gpu":"node0/gpu0"}`))
	})
	lg := &liveGateway{h: h}
	for range liveFunctions {
		lg.ref = append(lg.ref, []byte("[3]"))
	}
	return lg
}

func TestOpenLoopUnderload(t *testing.T) {
	lg := fakeGateway(time.Millisecond, 0, "[3]")
	p := lg.openLoop(make([]int, 40), 200, false)
	if p.sent != 40 || len(p.lat) != 40 || p.failedTotal() != 0 || p.wrong != 0 {
		t.Fatalf("sent %d served %d failed %v wrong %d", p.sent, len(p.lat), p.failed, p.wrong)
	}
	for _, l := range p.lat {
		if l < 0.001 {
			t.Fatalf("latency %v below the 1ms service time", l)
		}
	}
	// Two workers at 200/s with 1ms service are idle at most due times,
	// so nearly every send waited for its due time and its lateness is
	// recorded.
	if len(p.late) < 30 {
		t.Errorf("only %d of 40 sends recorded their lateness", len(p.late))
	}
	if worst := slices.Max(p.lat); worst > 0.05 {
		t.Errorf("worst latency %.3fs in an underloaded phase", worst)
	}
}

func TestOpenLoopDueTimeLatency(t *testing.T) {
	// 60 requests due over 60ms against two workers that each need 10ms
	// per request: service takes 300ms, so the last requests wait for
	// the backlog and their latency, counted from the due time, must
	// include that wait. Nobody waits for a due time, so no lateness.
	lg := fakeGateway(10*time.Millisecond, 0, "[3]")
	p := lg.openLoop(make([]int, 60), 1000, false)
	if len(p.lat) != 60 {
		t.Fatalf("served %d of 60", len(p.lat))
	}
	if worst := slices.Max(p.lat); worst < 0.2 {
		t.Errorf("worst latency %.3fs: the backlog wait is not charged from the due time", worst)
	}
	if len(p.late) > 2 {
		t.Errorf("%d sends waited for their due time in an overloaded phase", len(p.late))
	}
	// A closed loop (infinite rate) serves back to back: 20 requests
	// at 10ms on two workers take ~100ms.
	c := lg.openLoop(make([]int, 20), math.Inf(1), false)
	if len(c.lat) != 20 || c.use.wall < 90*time.Millisecond || c.use.wall > 200*time.Millisecond {
		t.Errorf("closed loop served %d in %v, want 20 in ~100ms", len(c.lat), c.use.wall)
	}
}

func TestOpenLoopCountsFailuresAndWrongOutputs(t *testing.T) {
	lg := fakeGateway(0, 4, "[5]")
	p := lg.openLoop(make([]int, 40), 2000, false)
	if got := p.failed[causeOutOfOrder]; got != 10 {
		t.Errorf("out-of-order failures = %d, want 10 (%v)", got, p.failed)
	}
	if p.wrong != 30 {
		t.Errorf("wrong predictions = %d, want 30", p.wrong)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gpufaas/internal/core.(*Scheduler).Schedule":   "core",
		"gpufaas/internal/gpu.(*Device).Busy":           "gpu",
		"gpufaas/internal/ordset.(*Set).Add[...]":       "ordset",
		"gpufaas/internal/cache.(*Manager).OnHit.func1": "cache",
		"main.runSim":                                  "bench",
		"runtime.mallocgc":                             "runtime.gc_malloc",
		"runtime.scanobject":                           "runtime.gc_malloc",
		"runtime.mapaccess2_faststr":                   "runtime.map",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime.map",
		"runtime.futex":                                "",
		"sync.(*Mutex).Lock":                           "",
		"slices.SortFunc[go.shape.[]gpufaas/internal/core.Ord,...]": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for range 1000 {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink += x
}

func TestSelfTimeDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	self, total, err := selfTime(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var top string
	var topV, sum int64
	for fn, v := range self {
		sum += v
		if v > topV {
			top, topV = fn, v
		}
	}
	if total <= 0 || sum != total {
		t.Fatalf("total %d, sum of self times %d", total, sum)
	}
	if !strings.HasSuffix(top, ".spinForProfile") || float64(topV) < 0.5*float64(total) {
		t.Errorf("hottest leaf %q with %d of %d ns, want spinForProfile", top, topV, total)
	}
	if _, _, err := selfTime([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metric set and the
// workload names equal to what BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in code, %d in BENCHMARK.json", len(workloads), len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}

func TestSimReplayIsDeterministicAndConserves(t *testing.T) {
	w := simWorkload{nodes: 3, workingSet: 15, minutes: 2}
	a, err := w.replay(7, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.replay(7, true)
	if err != nil {
		t.Fatal(err)
	}
	if bad := append(a.check(), b.check()...); len(bad) > 0 {
		t.Fatal(bad)
	}
	if a.finger != b.finger {
		t.Error("a traced replay's sim-time results differ from the untraced one")
	}
	if b.raw == nil || b.nextNS <= 0 {
		t.Error("traced replay carries no breakdown or trace-stream timing")
	}
}

func TestLiveGatewayServesReferencePredictions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the live gateway")
	}
	lg, err := newLiveGateway()
	if err != nil {
		t.Fatal(err)
	}
	p := lg.openLoop([]int{0, 1, 2, 3, 4, 5}, 100, true)
	if len(p.lat)+int(p.failedTotal()) != 6 || p.wrong != 0 {
		t.Fatalf("served %d failed %v wrong %d", len(p.lat), p.failed, p.wrong)
	}
	for _, s := range p.traced {
		if s.handler <= 0 || s.modelled <= 0 || s.handler < s.modelled {
			t.Errorf("traced sample %+v: handler time must cover the modelled GPU time", s)
		}
	}
}
