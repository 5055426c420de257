package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// layerMetrics are the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer a workload never reaches reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"vm.run_ms", "ms"},
	{"vm.reset_us", "us"},
	{"vm.steps", "count"},
	{"taint.run_self_ms", "ms"},
	{"taint.reset_us", "us"},
	{"taint.graph_ms", "ms"},
	{"taint.graph_edges", "count"},
	{"flowgraph.csr_ms", "ms"},
	{"maxflow.solve_ms", "ms"},
	{"merge.graphs_ms", "ms"},
	{"merge.merged_edges", "count"},
	{"engine.overhead_ms", "ms"},
	{"engine.cached_lookup_us", "us"},
	{"stagecache.result_hit_ratio", "share"},
	{"ledger.charge_settle_us", "us"},
	{"ledger.wal_appends_per_req", "count"},
	{"serve.service_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.attempts_per_req", "count"},
	{"serve.fast_path_share", "share"},
	{"fleet.self_ms", "ms"},
	{"fleet.hedges_per_req", "count"},
	{"fleet.failovers_per_req", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// countMetrics must repeat exactly across runs (allocations within 1%):
// they are measured on each workload's fixed reference operation.
var countMetrics = map[string]float64{
	"vm.steps":              0,
	"taint.graph_edges":     0,
	"merge.merged_edges":    0,
	"runtime.allocs_per_op": 0.01,
}

// span is one timed call made by the benchmark into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span measured elsewhere (HTTP middleware, load generator).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// ops counts distinct traced operations.
func (t *tracer) ops() int {
	seen := map[int]bool{}
	for _, s := range t.spans {
		seen[s.Op] = true
	}
	return len(seen)
}

// perOp sums each operation's spans of the given names, in milliseconds,
// keyed by operation.
func (t *tracer) perOp(names ...string) map[int]float64 {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[int]float64{}
	for _, s := range t.spans {
		if want[s.Name] {
			out[s.Op] += ms(s.dur())
		}
	}
	return out
}

// medianPerOp is the median over operations of perOp.
func (t *tracer) medianPerOp(names ...string) float64 {
	m := t.perOp(names...)
	if len(m) == 0 {
		return 0
	}
	v := make([]float64, 0, len(m))
	for _, x := range m {
		v = append(v, x)
	}
	return medianOf(v)
}

// medianCallUS is the median single-call duration of a span name, in µs.
func (t *tracer) medianCallUS(name string) float64 {
	var v []float64
	for _, s := range t.spans {
		if s.Name == name {
			v = append(v, float64(s.dur())/float64(time.Microsecond))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return medianOf(v)
}

// write dumps the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sorted := append([]span(nil), t.spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// memSnap captures the allocator and GC counters.
type memSnap struct{ mallocs, totalAlloc, numGC, pauseNs uint64 }

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.Mallocs, m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs}
}

// runtimeMetrics sets the runtime.* metrics for ops operations run between
// snapshots a and b.
func runtimeMetrics(out map[string]float64, a, b memSnap, ops int) {
	n := float64(ops)
	if n < 1 {
		n = 1
	}
	out["runtime.allocs_per_op"] = float64(b.mallocs-a.mallocs) / n
	out["runtime.alloc_mb_per_op"] = float64(b.totalAlloc-a.totalAlloc) / n / (1 << 20)
	out["runtime.gc_cycles_per_op"] = float64(b.numGC-a.numGC) / n
	out["runtime.gc_pause_ms_per_op"] = float64(b.pauseNs-a.pauseNs) / n / 1e6
}

// allocsOf counts the heap allocations of one call of f.
func allocsOf(f func() error) (uint64, error) {
	a := readMem()
	err := f()
	b := readMem()
	return b.mallocs - a.mallocs, err
}
