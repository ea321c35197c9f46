//go:build faultseed

package network

// This file seeds the bug shape the interprocedural lint engine exists
// to catch, invisible to a purely intraprocedural check: an acquired
// pooled packet handed to a helper that silently drops the reference.
// internal/lint's fault-seed self-test loads this package with
// -tags faultseed and asserts that poolpair reports it; plain builds
// never compile this file, so the module stays lint-clean.

// FaultSeedLintActive reports that the seeded lint fault is compiled
// in (mirrors multicast.FaultSeedActive).
const FaultSeedLintActive = true

// faultSeedLeakProbe acquires a pooled packet and hands it to a
// read-only helper: the reference dies in the callee.
func (w *Network) faultSeedLeakProbe() int {
	p := w.AcquirePacket()
	return faultSeedInspect(p)
}

// faultSeedInspect neither releases nor re-hands-off its parameter.
func faultSeedInspect(p *Packet) int { return p.Size }
