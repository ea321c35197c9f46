//go:build !faultseed

package network

// FaultSeedLintActive reports whether the deliberately seeded lint
// faults are compiled in (see faultseed_lint.go). Plain builds say
// false; internal/lint's fault-seed self-test asserts the tagged load
// catches the seeded leak.
const FaultSeedLintActive = false
