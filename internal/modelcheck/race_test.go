//go:build race

package modelcheck

// raceEnabled: the race detector's runtime allocates on the search's
// paths too, so the allocation guards read a ceiling of their own.
const raceEnabled = true
