package main

import (
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines every thread of the process to the last CPU it
// may run on (the first is where interrupts and daemons tend to land)
// and sets GOMAXPROCS to match. On the two-vCPU sandbox a
// wake-up that crosses vCPUs costs tens of microseconds, and where the
// kernel places the Go runtime's threads flips every few seconds:
// unconfined, the same binary measures a 35 us and a 50 us median get
// in alternation, and is slower on two vCPUs than on one. Confined,
// every second of a run looks like the next.
func pinToOneCPU() error {
	var mask [16]uint64 // room for 1024 CPUs
	size := uintptr(len(mask) * 8)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	var one [16]uint64
	for i := len(mask) - 1; i >= 0; i-- {
		if mask[i] != 0 {
			one[i] = 1 << (bits.Len64(mask[i]) - 1) // highest set bit
			break
		}
	}
	// Threads started from now on inherit the mask of the thread that
	// starts them; two passes catch one started during the first.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// ESRCH: the thread exited since the listing.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one[0]))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}

// keepCPUBusy starts a copy of this program that does nothing but spin
// on the benchmark's CPU under SCHED_IDLE, the policy that runs only
// when no other task wants the CPU and yields the moment one does.
// Call it after pinToOneCPU, so that the child inherits the confinement.
//
// A workload that writes stalls many times a second on an fsync (the
// write that fills a memtable rotates the log under the namespace lock
// and writes the table out itself), and while every client waits the
// one CPU is idle. An idle vCPU halts, the host runs somebody else on
// the core, and for some time after it wakes the same code runs a third
// slower: with 3-40 ms added to every fsync, update_heavy's median get
// went from 66 us to 85-100 us and cpu_us_per_op from 68 to 85-100,
// over the whole distribution, and both came back to 67-72 us with the
// spinner running. How long an fsync takes is the host's disk, not the
// program, so without the spinner the run measures the host. The
// spinner is a process of its own: its CPU time is not in this
// process's getrusage.
//
// The returned function stops the child and waits for it. A child that
// cannot get SCHED_IDLE exits at once, and the run goes on without; a
// child whose parent was killed before it could stop it sees its parent
// change and exits.
func keepCPUBusy() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-idle-spin", strconv.Itoa(os.Getpid()))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		_ = cmd.Process.Kill() // already gone if it could not get SCHED_IDLE
		_ = cmd.Wait()
	}, nil
}

// spinSink keeps the compiler from dropping the spinner's loop.
var spinSink uint64

// idleSpin is the child keepCPUBusy starts: it spins under SCHED_IDLE
// until its parent is no longer the process that started it.
func idleSpin(parent int) {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no idle spinner: sched_setscheduler(SCHED_IDLE): %v\n", e)
		os.Exit(1)
	}
	for os.Getppid() == parent {
		for i := 0; i < 1<<22; i++ {
			spinSink++
		}
	}
	os.Exit(0)
}
