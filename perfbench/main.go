// Command perfbench is the repository's benchmark: one process that
// runs one named workload for a fixed time, checks the program's
// outputs, and prints every metric by name and unit. The last line of
// standard output is the JSON result
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a separate traced run (which also writes its CPU profile
// and metrics under .bench_build/trace/). README.md explains the
// workloads and metrics; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists
// below are the metric set BENCHMARK.json declares (a test keeps them
// equal); every run reports every metric of its list.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_rps", "1/s"},
	{"setup_s", "s"},
	{"cpu_ns_per_request", "ns"},
	{"allocs_per_request", "count"},
	{"peak_rss_mb", "MiB"},
	{"latency_mean_s", "s"},
	{"latency_tail_s", "s"},
	{"served_share", "ratio"},
}

// profiledLayers are the internal/<module> packages (and "bench", this
// benchmark) whose CPU-profile self time is reported as
// <layer>.host_share.
var profiledLayers = []string{
	"core", "gpu", "ordset", "cache", "models", "sim", "trace", "cluster",
	"gpumgr", "obs", "faas", "datastore", "nn", "tensor", "bench",
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".host_share", "ratio"})
	}
	return append(defs, []metricDef{
		{"runtime.map_share", "ratio"},
		{"runtime.gc_malloc_share", "ratio"},
		{"sim.events_per_request", "1/req"},
		{"sim.max_event_queue", "count"},
		{"trace.ns_per_request", "ns"},
		{"core.arena_peak_inflight", "count"},
		{"core.o3_dispatches", "1/req"},
		{"core.local_queue_moves", "1/req"},
		{"core.starved", "1/req"},
		{"core.peak_local_queue", "count"},
		{"cache.miss_ratio", "ratio"},
		{"cache.false_miss_ratio", "ratio"},
		{"cache.top_model_duplicates", "count"},
		{"gpumgr.load_fraction", "ratio"},
		{"gpumgr.sm_utilization", "ratio"},
		{"gpumgr.modelled_s", "s"},
		{"obs.queue_p999_s", "s"},
		{"obs.load_p999_s", "s"},
		{"obs.service_p999_s", "s"},
		{"nn.predict_ns.squeezenet1.1", "ns"},
		{"nn.predict_ns.squeezenet1.0", "ns"},
		{"nn.predict_ns.inception.v3", "ns"},
		{"faas.stack_ns", "ns"},
		{"faas.failed.out_of_order", "count"},
		{"faas.failed.shed", "count"},
		{"faas.failed.timeout", "count"},
		{"faas.failed.other", "count"},
		{"faas.admission_shed_queue_full", "count"},
		{"faas.admission_shed_deadline", "count"},
		{"faas.admission_shed_tenant", "count"},
		{"bench.generator_late_ms", "ms"},
		{"bench.trace_overhead", "ratio"},
		{"bench.latency_samples", "count"},
		{"bench.tail_percentile", "%"},
	}...)
}()

// outcome is what a workload run hands back for reporting.
type outcome struct {
	attempted, failed int64
	problems          []string // failed correctness checks
	e2e, layers       map[string]float64
	samples           latencySummary // the latency sample behind latency_*
	profile           []byte         // traced runs: the CPU profile
}

type workloadFunc func(seed int64, budget time.Duration, traced bool) (outcome, error)

// workloads are the named workloads; README.md says why each exists.
var workloads = map[string]workloadFunc{
	"fleet-1024": func(seed int64, budget time.Duration, traced bool) (outcome, error) {
		return runSim(simWorkload{nodes: 256, workingSet: 512, minutes: 2}, seed, budget, traced)
	},
	"locality-48": func(seed int64, budget time.Duration, traced bool) (outcome, error) {
		return runSim(simWorkload{nodes: 12, workingSet: 140, minutes: 360}, seed, budget, traced)
	},
	"live-http": runLive,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fleet-1024, locality-48 or live-http")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	// One process on at most two Ps: the measurements describe a
	// two-core host whatever machine runs them.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	traced := *traceFlag == 1
	out, err := w(*seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	ls := out.samples
	fmt.Fprintf(stderr, "perfbench: %s seed %d: latency over %d samples: mean %.6g s, p50 %.6g s, p%g %.6g s\n",
		*name, *seed, ls.N, ls.Mean, ls.P50, ls.TailPct, ls.Tail)
	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layers
		shares, err := profileShares(out.profile)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		for l, share := range shares {
			vals[l] = share
		}
		vals["bench.latency_samples"] = float64(out.samples.N)
		vals["bench.tail_percentile"] = out.samples.TailPct
	} else {
		vals["peak_rss_mb"] = peakRSSMiB()
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := vals[d.name] // a layer the workload never reaches reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			out.problems = append(out.problems, fmt.Sprintf("%s is not a number", d.name))
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(stderr, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: INCORRECT: %s\n", p)
	}
	if traced {
		if err := writeTrace(*name, *seed, out.profile, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// profileShares turns the traced run's CPU profile into the
// <layer>.host_share metrics and the two runtime shares.
func profileShares(prof []byte) (map[string]float64, error) {
	self, total, err := selfTime(prof)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for l, share := range layerShares(self, total) {
		switch l {
		case "runtime.map", "runtime.gc_malloc":
			out[l+"_share"] = share
		default:
			out[l+".host_share"] = share
		}
	}
	return out, nil
}

// writeTrace keeps the traced run's CPU profile and per-layer metrics
// under .bench_build/trace/ in the working directory.
func writeTrace(name string, seed int64, prof []byte, res result) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(b, '\n'), 0o644)
}

// usage is the host cost of one measured phase.
type usage struct {
	wall, cpu time.Duration
	mallocs   uint64
}

type meter struct {
	start time.Time
	usage
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{time.Now(), usage{cpu: cpuTime(), mallocs: ms.Mallocs}}
}

func (m meter) stop() usage {
	wall := time.Since(m.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: wall, cpu: cpuTime() - m.cpu, mallocs: ms.Mallocs - m.mallocs}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}
