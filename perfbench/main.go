// Command perfbench is the repository's benchmark. It measures the
// paper's XPath workload end to end on four workloads — serving it over
// HTTP under the advisor's tuned design (serve-tuned) and under the
// plain hybrid-inlining mapping from a memory-budgeted paged store
// (serve-scan), appending to that store beside fresh reads (ingest),
// and running the Greedy design search itself (advise) — and, in a
// separate traced invocation, the per-layer numbers that explain them.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-tuned --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json; with -trace 1 they are its
// per-layer metrics. A wrong result exits non-zero without printing it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Every workload reports every end-to-end metric; what each one means
// on each workload is listed in perfbench/README.md. The bounded
// metrics count CPU time where the work is CPU-bound: on the shared
// virtual machine the benchmark was defined on, the share of CPU time
// the hypervisor stole ranged from 1% to 28% between runs, and
// wall-clock throughput and latency moved with it by up to 2x. Each
// run prints those wall-clock numbers too (see wall).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"read_cpu_ms", "ms"},
	{"space_amp", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by every traced run. A workload that does not
// exercise a layer takes that layer's numbers from a short pass of the
// workload that does (see tracedRun).
var perLayer = []metricDef{
	{"http.roundtrip_p50_ms", "ms"},
	{"http.roundtrip_p99_ms", "ms"},
	{"http.handler_ms", "ms"},
	{"http.response_bytes", "bytes"},
	{"service.query_ms", "ms"},
	{"service.admission_wait_p99_ms", "ms"},
	{"service.plan_cache_hit_ratio", "ratio"},
	{"service.granted_workers", "count"},
	{"xpath.parse_us", "us"},
	{"translate.translate_us", "us"},
	{"optimizer.plan_us", "us"},
	{"optimizer.whatif_calls", "count"},
	{"engine.prepare_us", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.execute_p50_ms", "ms"},
	{"engine.execute_p99_ms", "ms"},
	{"engine.rows_scanned_per_query", "count"},
	{"engine.rows_sought_per_query", "count"},
	{"engine.rows_out_per_query", "count"},
	{"engine.morsels_per_query", "count"},
	{"storage.chunk_fault_ms", "ms"},
	{"storage.chunk_hit_ms", "ms"},
	{"storage.pager_hit_ratio", "ratio"},
	{"storage.pager_faults_per_query", "count"},
	{"storage.pager_evictions_per_query", "count"},
	{"storage.segment_bytes_read_per_query", "bytes"},
	{"storage.paged_view_ms", "ms"},
	{"storage.append_batch_p50_ms", "ms"},
	{"storage.append_batch_p99_ms", "ms"},
	{"storage.rows_per_group_commit", "count"},
	{"storage.compact_ms", "ms"},
	{"storage.compact_bytes_written", "bytes"},
	{"storage.write_amp", "ratio"},
	{"storage.open_ms", "ms"},
	{"core.transformations", "count"},
	{"core.mappings_costed", "count"},
	{"core.costs_derived", "count"},
	{"core.eval_cache_hit_ratio", "ratio"},
	{"core.candidate_selection_ms", "ms"},
	{"core.candidate_merging_ms", "ms"},
	{"physdesign.tune_calls", "count"},
	{"physdesign.tune_ms", "ms"},
	{"shred.shred_ms", "ms"},
	{"stats.collect_ms", "ms"},
	{"engine.build_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.client_cpu_share", "ratio"},
	{"unexplained_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// workloads maps each workload name to its timed run and its traced
// pass. Order matters for tracedRun: passes run in this order.
var workloads = []struct {
	name  string
	timed func(*bench) error
	pass  func(*bench, bool) error
}{
	{"serve-tuned", func(b *bench) error { return timedServe(b, tuned) }, func(b *bench, own bool) error { return tracedServe(b, tuned, own) }},
	{"serve-scan", func(b *bench) error { return timedServe(b, scan) }, func(b *bench, own bool) error { return tracedServe(b, scan, own) }},
	{"ingest", timedIngest, tracedIngest},
	{"advise", timedAdvise, tracedAdvise},
}

// bench is one invocation's state: its inputs and what it measured.
type bench struct {
	seed    int64
	seconds time.Duration
	dir     string // scratch directory for stores, emptied at start

	attempted, failed int64
	metrics           map[string]float64
}

// wrongResult marks an output that disagrees with the reference. It
// aborts the run with a non-zero exit and no result line.
type wrongResult struct{ msg string }

func (e *wrongResult) Error() string { return "wrong result: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongResult{fmt.Sprintf(format, args...)}
}

func main() {
	name := flag.String("workload", "", "serve-tuned | serve-scan | ingest | advise")
	seed := flag.Int64("seed", 1, "seed for the data, the query mix and the ingest rows")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	dir := flag.String("dir", ".bench_build/work", "scratch directory for stores and trace files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var wr *wrongResult
		if errors.As(err, &wr) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, dir string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	known := false
	for _, w := range workloads {
		known = known || w.name == name
	}
	if !known {
		return fmt.Errorf("unknown -workload %q", name)
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	printMachine()
	steal0, total0 := cpuTicks()
	b := &bench{seed: seed, seconds: time.Duration(seconds) * time.Second, dir: dir, metrics: map[string]float64{}}
	defs := endToEnd
	if traced {
		defs = perLayer
		if err := tracedRun(b, name); err != nil {
			return err
		}
	} else {
		for _, w := range workloads {
			if w.name == name {
				if err := w.timed(b); err != nil {
					return err
				}
			}
		}
		b.metrics["peak_rss_mb"] = peakRSSMB()
	}
	steal1, total1 := cpuTicks()
	fmt.Printf("cpu steal during the run: %.1f%% of CPU time\n", 100*ratio(steal1-steal0, total1-total0))
	return emit(b, defs)
}

// tracedRun runs every workload's traced pass, the named one last and
// at full length, so the named workload's own measurements override
// the short passes that only fill in layers it does not exercise.
func tracedRun(b *bench, name string) error {
	for _, w := range workloads {
		if w.name != name {
			fmt.Printf("# traced pass %s (short, fills layers %s does not use)\n", w.name, name)
			if err := w.pass(b, false); err != nil {
				return err
			}
		}
	}
	// Only the named workload's operations count toward attempted.
	b.attempted, b.failed = 0, 0
	for _, w := range workloads {
		if w.name == name {
			fmt.Printf("# traced pass %s\n", w.name)
			if err := w.pass(b, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit prints the metrics by name with their units and then the
// one-line JSON result.
func emit(b *bench, defs []metricDef) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if b.attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	fmt.Printf("fail_rate %.6f fraction (%d of %d)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Printf("%s %.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMachine records the machine every result was measured on.
func printMachine() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("machine: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the machine's stolen and total CPU ticks from
// /proc/stat: on a shared virtual machine, time stolen by other guests
// slows every phase of a run, and the share is printed with the result.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v float64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupReps is how many times a run repeats its set-up; setup_s is
// the median and the last repetition's state is the one measured.
const setupReps = 3

// timeSetup runs set-up setupReps times, closing every repetition's
// state but the last, and records the median process CPU time as
// setup_s; the median wall time is printed.
func timeSetup(b *bench, rep func(i int) (closeFn func(), err error)) error {
	var cpu, wall []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start, c0 := time.Now(), cpuTime()
		closeFn, err := rep(i)
		if err != nil {
			return err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(start).Seconds())
		if i < setupReps-1 && closeFn != nil {
			closeFn()
		}
	}
	b.metrics["setup_s"] = median(cpu)
	wallf("setup_wall_s", median(wall), "s")
	return nil
}

// wallf prints a wall-clock result by name with its unit. These are
// the numbers a user sees; they are reported but carry no bound.
func wallf(name string, v float64, unit string) {
	fmt.Printf("%s %.6g %s (wall clock, not bounded)\n", name, v, unit)
}

// repDir is a fresh scratch subdirectory for one set-up repetition.
func (b *bench) repDir(kind string, i int) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", kind, i))
}

func median(v []float64) float64 { return pct(v, 50) }

// pct is the nearest-rank percentile of v (which it sorts).
func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	i := int(math.Ceil(float64(len(v))*p/100)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
