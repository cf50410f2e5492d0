// Command perfbench is gtlb's end-to-end and per-layer benchmark.
//
// One workload runs per invocation:
//
//	perfbench --workload sim --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the workload's end-to-end metrics with
// no instrumentation; with --trace 1 it measures the per-layer metrics
// and prints an attribution table. Either way it checks the program's
// outputs and prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metric map and the measured
// choices behind them.
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
	"syscall"
	"time"
)

// heldOutSeed is the seed no tuning of this benchmark or of a change
// measured with it may look at; a claimed gain must also hold on it.
const heldOutSeed = 9001

// setupReps is how many times each workload sets itself up, before the
// timed calls; setup_s is the median. Each set-up starts from a
// collected heap, so the garbage of the one before does not land in its
// time; the heap is still small, so the collections leave the timed
// calls as they would be.
const setupReps = 25

// slowFactor marks a block as slow when its median call takes this many
// times the fastest block's.
const slowFactor = 1.5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload invocation fills in.
type run struct {
	name   string
	seed   uint64
	budget time.Duration
	rep    report
	checks []string // failed output checks, for the log
	setup  []time.Duration

	// The timed calls are grouped into blocks of block calls each (one
	// when block is 0).
	block   int
	calls   []float64 // ms of each call in the open block
	blkWork float64
	blkTime time.Duration
	blocks  []blockStats
	work    float64       // operations all timed calls completed
	elapsed time.Duration // sum of all timed calls
}

// blockStats summarizes one block of timed calls.
type blockStats struct {
	opsPerS, p50, p99 float64
}

// fail records a failed output check or operation.
func (r *run) fail(format string, args ...any) {
	r.rep.Failed++
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// set records one metric.
func (r *run) set(name, unit string, v float64) {
	r.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

// timeSetup runs fn setupReps times and records each duration.
func (r *run) timeSetup(fn func() error) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		r.setup = append(r.setup, time.Since(start))
	}
	return nil
}

// call times one call into the program; fn returns the operations the
// call completed.
func (r *run) call(fn func() (float64, error)) error {
	r.rep.Attempted++
	start := time.Now()
	work, err := fn()
	d := time.Since(start)
	if err != nil {
		r.fail("call %d: %v", r.rep.Attempted, err)
		return err
	}
	if r.calls == nil {
		r.calls = make([]float64, 0, max(r.block, 1))
	}
	r.calls = append(r.calls, float64(d)/1e6)
	r.blkWork += work
	r.blkTime += d
	if len(r.calls) >= r.block {
		r.closeBlock()
	}
	r.work += work
	r.elapsed += d
	return nil
}

func (r *run) closeBlock() {
	sort.Float64s(r.calls)
	r.blocks = append(r.blocks, blockStats{
		opsPerS: r.blkWork / r.blkTime.Seconds(),
		p50:     quantile(r.calls, 0.50),
		p99:     quantile(r.calls, 0.99),
	})
	r.calls, r.blkWork, r.blkTime = r.calls[:0], 0, 0
}

// best returns the block with the highest throughput. On a shared host
// interference only ever adds time, so the least-disturbed block is the
// steadiest measure of the program; a partial last block counts only
// when no block filled.
func (r *run) best() blockStats {
	if len(r.blocks) == 0 && len(r.calls) > 0 {
		r.closeBlock()
	}
	var b blockStats
	for _, s := range r.blocks {
		if s.opsPerS > b.opsPerS {
			b = s
		}
	}
	return b
}

// pass is one side of a traced run's comparison.
type pass struct {
	work    float64
	elapsed time.Duration
}

func (p pass) nsPer() float64 { return float64(p.elapsed) / p.work }

// alternate makes pairs of timed calls, one untraced and one traced, in
// alternating order until the budget is spent, so that drift in the
// host's speed falls on both sides alike. Each fn makes one r.call for
// pair k; an error ends the loop.
func (r *run) alternate(untraced, traced func(k int) error) (plain, instrumented pass) {
	sides := [2]func(int) error{untraced, traced}
	var p [2]pass
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < r.budget; k++ {
		for i := 0; i < 2; i++ {
			side := (i + k) % 2
			work, elapsed := r.work, r.elapsed
			if err := sides[side](k); err != nil {
				return p[0], p[1]
			}
			p[side].work += r.work - work
			p[side].elapsed += r.elapsed - elapsed
		}
	}
	return p[0], p[1]
}

// endToEnd fills the end-to-end metrics every workload reports and
// prints the whole-run figures beside them as one JSON line: the
// throughput over all timed calls, the median of the blocks' median
// calls and the number of blocks whose median call is slowFactor times
// the fastest block's or more. On a workload whose block is one call
// these are the median call and the count of slow calls, which a change
// that slows only some calls moves while the fastest call stays put.
func (r *run) endToEnd() {
	b := r.best()
	r.set("setup_s", "s", median(seconds(r.setup)))
	r.set("ops_per_s", "1/s", b.opsPerS)
	r.set("p50_ms", "ms", b.p50)
	r.set("peak_rss_mb", "MB", peakRSSMB())
	p50s := make([]float64, len(r.blocks))
	slow := 0
	for i, s := range r.blocks {
		p50s[i] = s.p50
		if s.p50 >= slowFactor*b.p50 {
			slow++
		}
	}
	whole, err := json.Marshal(map[string]any{"whole_run": map[string]any{
		"calls": r.rep.Attempted, "blocks": len(r.blocks), "ops_per_s": r.work / r.elapsed.Seconds(),
		"median_block_p50_ms": median(p50s), "slow_blocks": slow, "slow_factor": slowFactor,
	}})
	if err == nil { // NaN when no call completed
		fmt.Println(string(whole))
	}
}

type workload struct {
	name string
	why  string
	// plain measures the end-to-end metrics; traced measures the
	// per-layer ones and prints the attribution table.
	plain, traced func(*run) error
}

var workloads = []workload{
	{"sim", "Table 3.1 system x1000 under COOP routing, one worker, untraced: des, queueing and metrics do the work",
		runSim, traceSim},
	{"sim-traced", "the sim inputs with the binary tracer on: obs carries two hooks per job plus encoding and flush",
		runSimTraced, traceSimTraced},
	{"nash-tcp", "sharded NASH to eps=1e-6*m for m=100 users over TCP loopback: dist protocol and transport",
		runNash, traceNash},
	{"control", "seeded lbgen stream into an lbd daemon over the mem transport, closed loop: ctrl drift check, admission and warm re-solve",
		runControl, traceControl},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed")
	secs := flag.Int("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 measures per-layer metrics instead of end-to-end ones")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// One P: the protocol and control workloads hand messages between
	// goroutines, and cross-core wake-ups on a shared two-core host
	// swing their times by more than a change would (README.md).
	runtime.GOMAXPROCS(1)
	r := &run{name: w.name, seed: *seed, budget: time.Duration(*secs) * time.Second,
		rep: report{Metrics: map[string]metric{}}}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printHost(w)
	fn := w.plain
	if *trace == 1 {
		fn = w.traced
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, c := range r.checks {
		fmt.Printf("FAILED: %s\n", c)
	}
	r.rep.Correct = r.rep.Failed == 0 && r.rep.Attempted > 0
	printMetrics(r.rep.Metrics)
	out, err := json.Marshal(r.rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printHost records the host fingerprint a later run is compared on.
func printHost(w *workload) {
	fmt.Printf("workload: %s — %s\n", w.name, w.why)
	fmt.Printf("host: go=%s gomaxprocs=%d nproc=%d cpu=%q checkpoint_fs=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), fsType(runDir))
	fmt.Printf("held-out seed: %d (a claimed gain must also hold on it)\n", heldOutSeed)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// runDir is the directory inside the checkout the benchmark writes its
// checkpoints and span logs to.
const runDir = ".bench_build/perfbench-run"

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	case 0x58465342:
		return "xfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// --- statistics ---------------------------------------------------

func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; it does not
// reorder xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// splitmix derives independent 64-bit values from one seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
