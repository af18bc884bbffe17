// Package racetest lets allocation tests skip themselves under the race
// detector, whose instrumentation allocates on paths that otherwise do
// not. Imported by _test files only.
package racetest

import "testing"

var enabled bool

// SkipAllocs skips t when the binary was built with -race.
func SkipAllocs(t testing.TB) {
	t.Helper()
	if enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}
