//go:build race

package engine_test

// raceEnabled reports a -race build: sync.Pool then drops pooled items at
// random, so a warmed session pool is not in steady state.
const raceEnabled = true
