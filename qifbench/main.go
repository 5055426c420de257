// Command qifbench is the repository benchmark. One invocation runs one
// workload for a fixed time from one seeded process, checks every answer
// against bit counts pinned at the commit that defined the benchmark, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
// latency_p50_ms, latency_tail_ms, slo_met_share, ok_share, cpu_ms_per_op);
// with -trace 1 the run replays the workload's operations
// through each layer's public functions and reports per-layer metrics.
// README.md in this directory lists the workloads and the layer →
// end-to-end metric → workload predictions.
//
// Other modes: -repeat N runs N seeds in child processes and prints the
// median, quartiles and relative spread of every metric; -pin regenerates
// pinned.json. Build and run with run.sh from the checkout root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// bench is one workload bound to its generated inputs.
type bench interface {
	// setup builds the system under test and warms it; its wall time is
	// one setup_s sample. Input generation happens before it.
	setup() error
	// measure runs the timed end-to-end loop for d with tracing off.
	measure(d time.Duration) (*sample, error)
	// traceLayers runs the workload untraced for d/2 and traced for d/2,
	// replays the traced operations through the layers, and returns the
	// per-layer metrics.
	traceLayers(d time.Duration, tr *tracer) (map[string]float64, error)
	close()
}

// spec names a workload, its latency limit, and its input generator. gen
// builds every input from the seed before anything is timed; probe asks
// for only what setup needs (the setup-probe child processes).
type spec struct {
	name  string
	limit time.Duration
	gen   func(seed int64, d time.Duration, probe bool) (bench, error)
}

// Latency limits for slo_met_share: about 2.5× each workload's median.
const (
	fig3Limit  = 600 * time.Millisecond
	exactLimit = 800 * time.Millisecond
	fleetLimit = 25 * time.Millisecond
)

var specs = []spec{
	{name: "fig3-compress", limit: fig3Limit, gen: newCompress(false)},
	{name: "exact-joint", limit: exactLimit, gen: newCompress(true)},
	{name: "fleet-interactive", limit: fleetLimit, gen: newFleet},
}

// setupSamples is how many set-ups one run times; all but the last run in
// fresh child processes, so every sample pays the process-global compile
// and static caches cold, as a restarted daemon does.
const setupSamples = 11

// sample is what one timed loop produced.
type sample struct {
	lat       []time.Duration // latencies of ok operations
	attempted int
	failed    int
	sloMet    int           // ok operations within the workload's limit
	closed    bool          // closed loop: ops_per_s from windows of op time (closedRate)
	elapsed   time.Duration // open loop: first due → last completion
	cpu       time.Duration // process CPU spent on the operations
	late      []time.Duration
	firstErr  error
}

func (s *sample) record(lat time.Duration, err error, limit time.Duration) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.lat = append(s.lat, lat)
	if lat <= limit {
		s.sloMet++
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("qifbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig3-compress, exact-joint or fleet-interactive")
	seed := fs.Int64("seed", 1, "seed for input generation")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end ones")
	setupProbe := fs.Bool("setup-probe", false, "time one set-up and exit (used by the benchmark itself)")
	repeat := fs.Int("repeat", 0, "run this many seeds (from -seed) in child processes and summarize")
	pin := fs.Bool("pin", false, "recompute the pinned answers and print them as JSON")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if n := runtime.NumCPU(); n > 2 {
		runtime.GOMAXPROCS(2)
	} else {
		runtime.GOMAXPROCS(n)
	}
	if *pin {
		if err := writePins(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "qifbench:", err)
			return 1
		}
		return 0
	}
	sp, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "qifbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "qifbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	if err := loadPins(); err != nil {
		fmt.Fprintln(os.Stderr, "qifbench:", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	switch {
	case *repeat > 0:
		return repeatRuns(sp, *seed, *seconds, *trace, *repeat)
	case *setupProbe:
		return probeSetup(sp, *seed)
	}
	res, err := runOnce(sp, *seed, d, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qifbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qifbench: encoding the result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// runOnce generates the inputs, times the set-ups, and runs either the
// end-to-end loop or the traced replay.
func runOnce(sp spec, seed int64, d time.Duration, traced bool) (*result, error) {
	b, err := sp.gen(seed, d, false)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	defer b.close()

	var setups []float64
	if !traced {
		for i := 0; i < setupSamples-1; i++ {
			s, err := childSetup(sp, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
	}
	t0 := time.Now()
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())

	if traced {
		tr := newTracer()
		layers, err := b.traceLayers(d, tr)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		res := &result{Correct: true, Attempted: tr.ops(), Metrics: map[string]metric{}}
		if res.Attempted < 1 {
			res.Attempted = 1
		}
		for _, lm := range layerMetrics {
			v, ok := layers[lm.name]
			if !ok || math.IsNaN(v) {
				return nil, fmt.Errorf("traced run produced no %s", lm.name)
			}
			res.Metrics[lm.name] = metric{Value: v, Unit: lm.unit}
		}
		return res, nil
	}

	resetPeakRSS()
	s, err := b.measure(d)
	if err != nil {
		return nil, err
	}
	return endToEnd(sp, s, setups), nil
}

// endToEnd turns a timed sample into the end-to-end metrics. A detail line
// (tail percentile, sample count, setup samples, peak RSS, first failure) precedes
// the result on standard output.
func endToEnd(sp spec, s *sample, setups []float64) *result {
	lat := sortedMS(s.lat)
	tailV, tailPct, windows := runTail(s.lat)
	ok := len(s.lat)
	attempted := s.attempted
	if attempted < 1 {
		attempted = 1
	}
	res := &result{
		Correct:   s.failed == 0 && ok > 0,
		Attempted: attempted,
		Failed:    s.failed,
		Metrics: map[string]metric{
			"setup_s":         {medianOf(setups), "s"},
			"ops_per_s":       {opsPerSec(s), "1/s"},
			"latency_p50_ms":  {median(lat), "ms"},
			"latency_tail_ms": {tailV, "ms"},
			"slo_met_share":   {float64(s.sloMet) / float64(attempted), "share"},
			"ok_share":        {float64(ok) / float64(attempted), "share"},
			"cpu_ms_per_op":   {ms(s.cpu) / float64(attempted), "ms"},
		},
	}
	detail := map[string]any{
		"workload":      sp.name,
		"samples":       ok,
		"tail_pct":      tailPct,
		"tail_windows":  windows,
		"limit_ms":      ms(sp.limit),
		"setup_samples": setups,
		"peak_rss_mb":   peakRSSMB(),
	}
	if len(s.late) > 0 {
		detail["late_p99_ms"] = p99(sortedMS(s.late))
	}
	if s.firstErr != nil {
		detail["first_error"] = s.firstErr.Error()
		fmt.Fprintln(os.Stderr, "qifbench: failed operation:", s.firstErr)
	}
	line, _ := json.Marshal(map[string]any{"detail": detail})
	fmt.Println(string(line))
	return res
}

func opsPerSec(s *sample) float64 {
	if s.closed {
		return closedRate(s.lat)
	}
	return float64(len(s.lat)) / s.elapsed.Seconds()
}

// childSetup times one set-up in a fresh child process.
func childSetup(sp spec, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-setup-probe", "-workload", sp.name, "-seed", strconv.FormatInt(seed, 10)).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return 0, fmt.Errorf("setup probe: %v: %s", err, strings.TrimSpace(string(ee.Stderr)))
		}
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) == 0 {
		return 0, fmt.Errorf("setup probe printed nothing")
	}
	return strconv.ParseFloat(fields[len(fields)-1], 64)
}

// probeSetup is the child side of childSetup: generate only what set-up
// needs, time one set-up, print seconds.
func probeSetup(sp spec, seed int64) int {
	b, err := sp.gen(seed, 0, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qifbench:", err)
		return 1
	}
	defer b.close()
	t0 := time.Now()
	if err := b.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "qifbench: setup:", err)
		return 1
	}
	fmt.Println(time.Since(t0).Seconds())
	return 0
}
