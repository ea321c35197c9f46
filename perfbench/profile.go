package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
)

// profileHz is the CPU sampling rate of traced runs. The pprof default
// of 100 Hz leaves a one-second repetition with too few samples to
// split across twelve layers; rates above the kernel's timer tick
// (250 Hz on the 2-core Linux VM this was tuned on) silently drop
// samples, and the coverage metric would no longer sum to the run's
// CPU time.
const profileHz = 250

// cpuProfile is a running runtime/pprof CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

// startProfile starts a CPU profile at profileHz. runtime/pprof always
// asks for 100 Hz; setting the rate first makes that request a no-op
// (the runtime prints one warning line on stderr), and the profile
// records the real sampling period, which fold reads back through each
// sample's CPU-nanoseconds value.
func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns its gzipped protocol-buffer form.
func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}
