// Fixture for the stale-suppression audit: a reasoned //lint:ignore
// that still suppresses a finding stays silent, while one covering code
// that no longer trips its rule is itself reported.
package stalesup

import "os"

// live keeps its directive earning its keep: the discard below would be
// an err-discard finding without it.
func live(path string) {
	//lint:ignore err-discard fixture: deliberate best-effort cleanup
	os.Remove(path)
}

// stale's directive covers code that stopped discarding the error long
// ago, so the directive itself is the finding now.
func stale(path string) error {
	//lint:ignore err-discard fixture: the discard this once covered was fixed, leaving the directive dead // WANT stale-suppression
	return os.Remove(path)
}
