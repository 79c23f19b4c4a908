// Command perfbench is the end-to-end benchmark of the perfknow services.
//
// It drives three workloads against the program's public entry points from
// a single process and prints, as the last line of standard output, one JSON
// object with the correctness verdict, the attempted and failed operation
// counts and the metrics:
//
//	perfbench --workload diagnose --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run replays each workload's seeded operation sequence
// twice, untraced and then with the benchmark's spans around every call into
// a layer, replays in process what the server does internally, and reports
// the per-layer metrics plus the tracing overhead.
//
// --steady N runs two sets of N runs of every workload (one process per run)
// and prints each set's median and quartiles per end-to-end metric next to
// the bound BENCHMARK.json fixes. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"perfknow/internal/perfdmf"
)

// A run builds its workload's state setupBefore times before the timed
// phase, keeping the last build for it, and setupAfter times after it;
// setup_s is the median build time. Builds on both sides of the timed phase
// sample the machine's noise over the whole run, as the timed metrics do.
const (
	setupBefore = 6
	setupAfter  = 6
)

// workload is one benchmark input mix, built by a builder in a fresh
// directory.
type workload interface {
	// clients returns one round function per client goroutine. A round is a
	// fixed, seed-shuffled list of operations; runs attempt whole rounds.
	clients() []func(rec *recorder, rng *rand.Rand)
	// finish runs the end-of-run output checks.
	finish(chk *checker)
	// storage reports the bytes on disk under every repository and the
	// canonical JSON bytes of the live set those repositories hold.
	storage() (disk, input int64, err error)
	close()
}

type builder func(env *env) (workload, error)

// env is what a builder gets: its own directory, the seed, the tracer (nil
// when untraced) and the checker collecting output-check failures.
type env struct {
	dir  string
	seed int64
	tr   *tracer
	chk  *checker
}

var workloads = map[string]builder{
	"diagnose":  newDiagnose,
	"ingest":    newIngest,
	"casestudy": newCasestudy,
}

var workloadOrder = []string{"diagnose", "ingest", "casestudy"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "diagnose", "workload: diagnose, ingest or casestudy")
	seed := flag.Int64("seed", 1, "seed for the generated inputs and the operation order")
	seconds := flag.Float64("seconds", 35, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	steadyRuns := flag.Int("steady", 0, "run two sets of N runs of every workload and print their spread")
	flag.Parse()

	if *steadyRuns > 0 {
		if err := steady(*steadyRuns); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := runMode(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runMode prepares the work directory under .bench_build and runs one
// untraced or traced measurement. The directory is removed at the end.
func runMode(name string, seed int64, seconds float64, traced bool) (*report, error) {
	root, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, "tmp"), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	// The program writes some temporary files (TAU uploads, rule assets);
	// keep them inside the work directory.
	os.Setenv("TMPDIR", filepath.Join(root, "tmp"))
	if traced {
		return tracedRun(root, name, seed, seconds)
	}
	return untracedRun(root, name, seed, seconds)
}

// untracedRun measures the end-to-end metrics of one workload.
func untracedRun(root, name string, seed int64, seconds float64) (*report, error) {
	chk := &checker{}
	w, setups, err := build(root, "pre", name, seed, chk, setupBefore, true)
	if err != nil {
		return nil, err
	}
	ph := measure(w, seed, seconds, nil)
	w.finish(chk)
	disk, input, err := w.storage()
	w.close()
	if err != nil {
		return nil, err
	}
	if input <= 0 {
		return nil, errors.New("live set is empty")
	}
	rep := &report{
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"ops_per_s":                   {ph.opsPerS, "1/s"},
			"p50_ms":                      {ph.p50, "ms"},
			"p95_ms":                      {ph.p95, "ms"},
			"peak_rss_mb":                 {peakRSSMiB(), "MiB"},
			"alloc_mb_per_op":             {ph.allocBytes / float64(ph.attempted) / (1 << 20), "MiB"},
			"stored_bytes_per_input_byte": {float64(disk) / float64(input), "B/B"},
		},
	}
	_, post, err := build(root, "post", name, seed, chk, setupAfter, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, post...)
	setupS := median(setups)
	rep.Metrics["setup_s"] = metric{setupS, "s"}
	rep.Correct = chk.ok()
	chk.report(os.Stderr)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: setup %.4f s (builds %.4f), %d ops in %.2fs (%.1f/s, %d failed)\n",
		name, seed, setupS, setups, ph.attempted, ph.elapsed.Seconds(), float64(ph.attempted)/ph.elapsed.Seconds(), ph.failed)
	for _, k := range sortedKeys(ph.byKind) {
		fmt.Fprintf(os.Stderr, "perfbench:   %-28s n=%-6d p50 %8.3f ms\n", k, len(ph.byKind[k]), median(ph.byKind[k]))
	}
	return rep, nil
}

// build builds the workload n times, each in a fresh directory after a
// garbage collection, and returns each build's time. It keeps the last
// build when keep is set; every other build is closed. Their directories
// stay until the run removes its work directory at exit, so that no file
// deletion adds disk work to the timed phase.
func build(root, prefix, name string, seed int64, chk *checker, n int, keep bool) (workload, []float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		dir := filepath.Join(root, fmt.Sprintf("%s%d", prefix, i))
		runtime.GC()
		start := time.Now()
		w, err := workloads[name](&env{dir: dir, seed: seed, chk: chk})
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", name, err)
		}
		times = append(times, time.Since(start).Seconds())
		if keep && i == n-1 {
			return w, times, nil
		}
		w.close()
	}
	return nil, times, nil
}

// phase is the outcome of one timed phase.
type phase struct {
	opsPerS           float64
	p50, p95          float64 // ms, over the op mix at each kind's median latency
	byKind            map[string][]float64
	attempted, failed int64
	elapsed           time.Duration
	allocBytes        float64
	gcCycles          float64
	later             [][]queued // per client: work queued for after the phase
}

// measure warms the workload up with one round per client, drops what the
// tracer recorded so far, collects garbage, then runs every client in its
// own goroutine for whole rounds until the deadline has passed.
func measure(w workload, seed int64, seconds float64, tr *tracer) phase {
	clients := w.clients()
	runRounds := func(deadline time.Time, recs []*recorder) {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c func(*recorder, *rand.Rand)) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
				r := recs[i]
				for {
					c(r, rng)
					r.rounds++
					if !time.Now().Before(deadline) {
						return
					}
				}
			}(i, c)
		}
		wg.Wait()
	}
	warm := make([]*recorder, len(clients))
	for i := range warm {
		warm[i] = &recorder{}
	}
	runRounds(time.Now(), warm)

	tr.reset()
	runtime.GC()
	m0 := readRuntime()
	start := time.Now()
	recs := make([]*recorder, len(clients))
	for i := range recs {
		recs[i] = &recorder{start: start}
	}
	runRounds(start.Add(time.Duration(seconds*float64(time.Second))), recs)
	var ph phase
	ph.elapsed = time.Since(start)
	m1 := readRuntime()
	ph.allocBytes = m1.allocBytes - m0.allocBytes
	ph.gcCycles = m1.gcCycles - m0.gcCycles
	ph.byKind = map[string][]float64{}
	var typical []weighted
	for _, r := range recs {
		for _, o := range r.ops {
			ph.byKind[o.kind] = append(ph.byKind[o.kind], o.ms)
		}
		ph.attempted += r.attempted
		ph.failed += r.failed
		ph.later = append(ph.later, r.later)
		// Every round of a client runs the same operations, so the run
		// reports each operation kind at its median latency over the run,
		// and the client's round as the sum of those medians. The machine's
		// other load comes in stretches of seconds; it moves these figures
		// only where it slows more than half of one kind's operations.
		kinds := map[string][]float64{}
		for _, o := range r.ops {
			kinds[o.kind] = append(kinds[o.kind], o.ms)
		}
		rounds := float64(r.rounds)
		var roundMs float64
		for _, xs := range kinds {
			m := median(xs)
			roundMs += m * float64(len(xs)) / rounds
			typical = append(typical, weighted{m, float64(len(xs))})
		}
		if roundMs > 0 {
			ph.opsPerS += float64(len(r.ops)) / rounds / (roundMs / 1000)
		}
	}
	ph.p50, ph.p95 = weightedQuantile(typical, 0.50), weightedQuantile(typical, 0.95)
	return ph
}

// recorder collects one client's operation outcomes.
type recorder struct {
	ops               []opSample
	attempted, failed int64
	start             time.Time // of the timed phase
	later             []queued
	rounds            int // completed
}

// queued is work queued during the timed phase, at offset at from its start.
type queued struct {
	at time.Duration
	fn func()
}

// after queues fn to run once the timed phase is over. Traced runs use it
// for the in-process replays that time the layers a server calls
// internally, so that the timed phase holds only the spans and wrappers and
// its throughput shows their overhead alone.
func (r *recorder) after(fn func()) {
	r.later = append(r.later, queued{time.Since(r.start), fn})
}

// replay runs each client's queued work in its own goroutine, each item at
// the offset from the start of the replay at which it was queued, or when
// the items before it are done if that is later, so the replays of
// different clients interleave as the operations that queued them did. It
// waits for all of it.
func replay(later [][]queued) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, items := range later {
		wg.Add(1)
		go func(items []queued) {
			defer wg.Done()
			for _, it := range items {
				if d := time.Until(start.Add(it.at)); d > 0 {
					time.Sleep(d)
				}
				it.fn()
			}
		}(items)
	}
	wg.Wait()
}

// opSample is one completed operation.
type opSample struct {
	kind string
	ms   float64
}

// op times one operation. An error counts the operation as failed; its
// latency is not sampled.
func (r *recorder) op(kind string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kind, err)
		}
		return err
	}
	r.ops = append(r.ops, opSample{kind, float64(d) / float64(time.Millisecond)})
	return nil
}

// checker collects output-check failures from every goroutine.
type checker struct {
	mu    sync.Mutex
	fails []string
	n     int
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.fails) < 20 {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n == 0
}

func (c *checker) report(w *os.File) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.fails {
		fmt.Fprintln(w, "perfbench: check failed:", f)
	}
	if c.n > len(c.fails) {
		fmt.Fprintf(w, "perfbench: %d more check failures\n", c.n-len(c.fails))
	}
}

type runtimeSample struct{ allocBytes, gcCycles float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeSample{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// weighted is a value standing for weight samples.
type weighted struct{ v, w float64 }

// weightedQuantile is the smallest value at which the cumulative weight of
// the values at or below it reaches q of the total weight.
func weightedQuantile(xs []weighted, q float64) float64 {
	s := append([]weighted(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total, cum float64
	for _, x := range s {
		total += x.w
	}
	for _, x := range s {
		cum += x.w
		if cum >= q*total {
			return x.v
		}
	}
	return 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// dirBytes sums the sizes of the regular files under each directory.
func dirBytes(dirs ...string) (int64, error) {
	var n int64
	for _, d := range dirs {
		err := filepath.WalkDir(d, func(path string, de os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if de.Type().IsRegular() {
				info, err := de.Info()
				if err != nil {
					return err
				}
				n += info.Size()
			}
			return nil
		})
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return 0, err
		}
	}
	return n, nil
}

// shuffled returns a seeded permutation of ops.
func shuffled[T any](rng *rand.Rand, ops []T) []T {
	out := append([]T(nil), ops...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// jsonBytes is the canonical JSON size of a live set.
func jsonBytes(trials map[string]*perfdmf.Trial) (int64, error) {
	var n int64
	for _, t := range trials {
		data, err := json.Marshal(t)
		if err != nil {
			return 0, err
		}
		n += int64(len(data))
	}
	return n, nil
}
