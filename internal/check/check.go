// Package check is the runtime invariant-checking framework: deep
// structural validators (B+tree ordering, LSM component sequencing,
// buffer-cache accounting) live next to the data structures they verify
// as Validate() methods; this package decides when they run and how
// violations surface.
//
// Three entry points:
//
//   - tests call MustValidate unconditionally, so every tier-1 run walks
//     the structures regardless of build flavor;
//   - production code calls Run (error) or Assert (panic) at natural
//     barriers (after a flush, after a bulk load); these are no-ops
//     unless checking is enabled;
//   - checking is enabled by building with -tags invariants, or at run
//     time by setting ASTERIX_INVARIANTS to any non-empty value.
//
// Validators are O(structure size) deep walks — far too expensive for the
// hot path, which is why the production hooks are opt-in.
package check

import (
	"fmt"
	"os"
)

// Validator is a structure that can verify its own deep invariants.
// Validate must be safe to call between operations (it may take the
// structure's own locks) and must not modify the structure.
type Validator interface {
	Validate() error
}

// Enabled reports whether production invariant hooks are active: true
// when built with -tags invariants or when ASTERIX_INVARIANTS is set.
func Enabled() bool {
	return tagEnabled || os.Getenv("ASTERIX_INVARIANTS") != ""
}

// Run validates v when checking is enabled; disabled or nil v is a no-op.
func Run(v Validator) error {
	if !Enabled() || v == nil {
		return nil
	}
	if err := v.Validate(); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}
	return nil
}

// Assert is Run for call sites with no error path: it panics on
// violation. Use at debug barriers where continuing would corrupt data.
func Assert(v Validator) {
	if err := Run(v); err != nil {
		panic(err)
	}
}

// failer is the subset of testing.TB MustValidate needs; an interface so
// this package does not import testing into production binaries.
type failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// MustValidate runs v's validator unconditionally — tests always check,
// independent of build tags — and fails the test on violation.
func MustValidate(tb failer, v Validator) {
	tb.Helper()
	if v == nil {
		tb.Fatalf("check: MustValidate called with nil validator")
		return
	}
	if err := v.Validate(); err != nil {
		tb.Fatalf("invariant violation: %v", err)
	}
}
