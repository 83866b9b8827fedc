//go:build race

package experiments

// raceEnabled reports a -race build, whose instrumentation slows
// measured wall time several-fold while modelled I/O time stays fixed,
// so time ratios that mix the two are not meaningful under it.
const raceEnabled = true
