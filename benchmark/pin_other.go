//go:build !linux

package main

// pinToOneCPU is a no-op where the scheduler calls are not available;
// see pin_linux.go for why the benchmark wants it.
func pinToOneCPU() error { return nil }

// keepCPUBusy and idleSpin need SCHED_IDLE; see pin_linux.go.
func keepCPUBusy() (stop func(), err error) { return func() {}, nil }

func idleSpin(int) {}
