//go:build !race

package ml4all_test

const raceEnabled = false
