// Package suppress exercises //lint:ignore handling: a well-formed
// suppression silences the finding on the next line, a reasonless or
// unknown-check suppression is itself reported and silences nothing.
// (This file is asserted explicitly by the driver tests, not via want
// comments.)
package suppress

import "fmt"

// Wrapped carries a sanctioned suppression with a reason.
func Wrapped(err error) error {
	//lint:ignore qatklint/errattr the legacy log format is parsed downstream
	return fmt.Errorf("legacy: %v", err)
}

// MissingReason omits the mandatory reason: the suppression is reported
// and the finding below survives.
func MissingReason(err error) error {
	//lint:ignore qatklint/errattr
	return fmt.Errorf("legacy: %v", err)
}

// UnknownCheck names an analyzer that does not exist.
func UnknownCheck(err error) error {
	//lint:ignore qatklint/nosuchcheck the check name is misspelled
	return fmt.Errorf("legacy: %v", err)
}

// Unused carries a suppression that matches nothing: the wrapped error
// below is errattr-clean, so the stale comment is itself a finding.
func Unused(err error) error {
	//lint:ignore qatklint/errattr nothing below actually trips errattr
	return fmt.Errorf("suppress: wrapped: %w", err)
}

// MultiDiag puts two analyzers on one statement line: its recover()
// call is a paniccontract finding beside the errattr one, and the
// suppression names only errattr, so the paniccontract finding survives.
//
//lint:ignore qatklint/errattr the legacy log format is parsed downstream
func MultiDiag(err error) error { return fmt.Errorf("legacy: %v (%v)", err, recover()) }
