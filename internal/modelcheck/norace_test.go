//go:build !race

package modelcheck

const raceEnabled = false
