// Command perfbench is greednet's benchmark.  It measures two workloads
// from outside the program, through the public functions of the
// service, game, alloc, profkey, des, des/calq and randdist packages:
//
//	greedd-solve  the paper's control loop served by greedd over loopback HTTP
//	compute       the reproduction's library calls: DES engines and Nash solvers
//
// One invocation runs one workload:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every input is generated from --seed before it is sent and never
// depends on a response.  With --trace 0 the last line of standard
// output is a JSON object carrying the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are written under --outdir.  The process exits 1 when an output
// check fails and 2 when the run could not be made.  README.md documents
// the workloads, the metrics and the noise record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// report accumulates one run's metrics, operation counts and check
// failures.  Workloads run their measurements on helper goroutines but
// fill the report from the main goroutine only.
type report struct {
	metrics   map[string]metric
	lines     []string
	checks    []string
	failures  int
	attempted int64
	failed    int64
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric; n > 0 is the sample count behind it and is
// printed with the value.
func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-36s %14.6g %s", name, v, unit)
	if n > 0 {
		line += fmt.Sprintf("  (n=%d)", n)
	}
	r.lines = append(r.lines, line)
}

// note records a human-readable line that is not a metric.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, "# "+fmt.Sprintf(format, args...))
}

// fail records a failed output check.  The first few messages are
// kept; every failure counts.
func (r *report) fail(err error) {
	if err == nil {
		return
	}
	r.failures++
	if len(r.checks) < 10 {
		r.checks = append(r.checks, err.Error())
	}
}

// ops adds attempted and failed operations.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

var workloads = map[string]func(runConfig, *report) error{
	"greedd-solve": runGreeddSolve,
	"compute":      runCompute,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: greedd-solve or compute")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 50, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	outDir := fs.String("outdir", ".bench_build/perfbench", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if !(*seconds >= 1) || math.IsInf(*seconds, 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	rep := newReport()
	rep.note("workload %s seed %d seconds %g trace %d; host %s", *name, *seed, *seconds, *trace, hostStamp())
	if err := wl(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
		for _, m := range perLayer {
			if _, ok := rep.metrics[m.name]; !ok {
				// A layer this workload bypasses did no work.
				rep.set(m.name, m.unit, 0, 0)
			}
		}
	}
	if err := sameMetricSet(rep.metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, c := range rep.checks {
		fmt.Println("CHECK FAILED: " + c)
	}
	if rep.failures > len(rep.checks) {
		fmt.Printf("CHECK FAILED: %d more\n", rep.failures-len(rep.checks))
	}
	res := result{Correct: rep.failures == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 2
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics every traced run prints.  A layer the
// workload bypasses reports 0.
var perLayer = []metricDef{
	{"service.update.p50_ms", "ms"},
	{"service.solve_miss.p50_ms", "ms"},
	{"service.solve_miss.p99_ms", "ms"},
	{"service.solve_hit.p50_ms", "ms"},
	{"service.congestion.p50_ms", "ms"},
	{"service.congestion.p99_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.solves_run", "count"},
	{"service.cache_hit_frac", "frac"},
	{"service.class_cache_hit_frac", "frac"},
	{"service.coalesced_frac", "frac"},
	{"service.queue_max", "count"},
	{"service.shed.overload", "count"},
	{"service.shed.deadline", "count"},
	{"service.shed.admission", "count"},
	{"game.exact.solve_ms", "ms"},
	{"game.exact.rounds", "count"},
	{"game.exact.round_us", "us"},
	{"game.exact.allocs_per_solve", "count"},
	{"game.br.call_us", "us"},
	{"game.class.k8.solve_us", "us"},
	{"game.class.k64.solve_us", "us"},
	{"game.class.k8.rounds", "count"},
	{"game.class.k64.rounds", "count"},
	{"game.class.allocs_per_solve", "count"},
	{"game.fluid.solve_us", "us"},
	{"alloc.fairshare.congestion_n64_ns", "ns"},
	{"alloc.fairshare.congestion_n1e4_ns", "ns"},
	{"profkey.peruser_us", "us"},
	{"profkey.classkey_us", "us"},
	{"api.solve_encode_us", "us"},
	{"api.update_decode_us", "us"},
	{"des.run.events_per_s", "1/s"},
	{"des.run.allocs_per_event", "count"},
	{"des.disc.fairshare.op_ns", "ns"},
	{"des.rung.events_per_s", "1/s"},
	{"des.runsched_fq.events_per_s", "1/s"},
	{"des.runsched_fcfs.events_per_s", "1/s"},
	{"des.runsched_fq.allocs_per_event", "count"},
	{"des.runtandem.events_per_s", "1/s"},
	{"des.fq_over_fcfs", "ratio"},
	{"des.ci_cover_frac", "frac"},
	{"calq.op_ns", "ns"},
	{"randdist.pair_ns", "ns"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.outstanding_max", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.identity_resid_frac", "frac"},
}

// sameMetricSet reports whether got holds exactly the metrics of want,
// each with its declared unit and a finite value.
func sameMetricSet(got map[string]metric, want []metricDef) error {
	var problems []string
	seen := make(map[string]bool, len(want))
	for _, m := range want {
		seen[m.name] = true
		g, ok := got[m.name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.name)
		case g.Unit != m.unit:
			problems = append(problems, fmt.Sprintf("%s has unit %q, want %q", m.name, g.Unit, m.unit))
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			problems = append(problems, m.name+" is not finite")
		}
	}
	for name := range got {
		if !seen[name] {
			problems = append(problems, "unexpected "+name)
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		return fmt.Errorf("metric set: %s", strings.Join(problems, "; "))
	}
	return nil
}

// hostStamp describes the machine a run measured.
func hostStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}
