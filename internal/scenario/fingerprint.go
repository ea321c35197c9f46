package scenario

import "fmt"

// Fingerprint renders every field of a script result at %v
// (shortest round-trip) precision plus the simulator's executed-event
// count, so string equality of two fingerprints is bit equality of the
// runs they summarize. The rerun, worker and tree-cache invariants of
// internal/scengen compare these strings, and the per-run goldens of
// this package's tests pin them to testdata/golden_runs.txt.
func Fingerprint(res *ScriptResult, executed uint64) string {
	return fmt.Sprintf("script=%s sent=%d expected=%d delivered=%d stale=%d mean=%v p50=%v p95=%v ctrl=%v jain=%v elapsed=%v events=%d delaydg=%#x samples=%d audpeak=%d audopen=%d",
		res.Script, res.Sent, res.Expected, res.Delivered, res.Stale,
		res.MeanDelay, res.P50Delay, res.P95Delay, res.CtrlPerNodeS, res.Jain, res.Elapsed,
		executed, res.DelayDigest, res.DelaySamples, res.AudiencePeak, res.AudienceOpen)
}
