//go:build !race

package analyze_test

const raceEnabled = false
