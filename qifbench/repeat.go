package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns is the steadiness check: it runs n seeds (seed, seed+1, ...)
// one after another in child processes and prints, per metric, the
// median, the quartiles (as Python's statistics.quantiles(n=4)), and the
// relative spread (q3−q1)/median next to the metric's bound from
// BENCHMARK.json. A metric is steady when its spread is within a third of
// its bound. With -trace 1 it also checks that the count metrics repeat
// exactly (allocations within 1%). It exits non-zero if a run failed or a
// count did not repeat.
func repeatRuns(sp spec, seed int64, seconds, trace, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qifbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if jerr := json.Unmarshal(lines[len(lines)-1], &res); err != nil || jerr != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "qifbench: seed %d failed: %v %v\n", s, err, jerr)
			status = 1
			continue
		}
		row := fmt.Sprintf("seed %d:", s)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			row += fmt.Sprintf(" %s=%.4g", name, m.Value)
		}
		fmt.Fprintln(os.Stderr, row)
	}
	bounds := readBounds()
	type summary struct {
		Median float64  `json:"median"`
		Q1     float64  `json:"q1"`
		Q3     float64  `json:"q3"`
		Spread float64  `json:"spread"`
		Bound  *float64 `json:"bound,omitempty"`
		Steady *bool    `json:"steady,omitempty"`
		Unit   string   `json:"unit"`
	}
	report := map[string]summary{}
	for _, name := range sortedKeys(values) {
		v := values[name]
		q1, q2, q3 := quartiles(v)
		sm := summary{Median: q2, Q1: q1, Q3: q3, Spread: (q3 - q1) / math.Abs(q2), Unit: units[name]}
		if b, ok := bounds[name]; ok {
			steady := sm.Spread <= b/3
			sm.Bound, sm.Steady = &b, &steady
		}
		if tol, ok := countMetrics[name]; ok && trace == 1 {
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			if hi-lo > tol*math.Abs(hi) {
				fmt.Fprintf(os.Stderr, "qifbench: count %s does not repeat: %v\n", name, v)
				status = 1
			}
		}
		report[name] = sm
		fmt.Fprintf(os.Stderr, "%-28s median %-12.5g q1 %-12.5g q3 %-12.5g spread %.4f", name, sm.Median, q1, q3, sm.Spread)
		if sm.Bound != nil {
			fmt.Fprintf(os.Stderr, "  bound %.3f steady %v", *sm.Bound, *sm.Steady)
		}
		fmt.Fprintln(os.Stderr)
	}
	line, _ := json.Marshal(map[string]any{"workload": sp.name, "runs": n, "metrics": report})
	fmt.Println(string(line))
	return status
}

// readBounds returns the end-to-end bounds from BENCHMARK.json in the
// working directory, if it is there.
func readBounds() map[string]float64 {
	out := map[string]float64{}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return out
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &b) == nil {
		for _, m := range b.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
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
