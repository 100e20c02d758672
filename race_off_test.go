//go:build !race

package ibcbench_test

const raceEnabled = false
