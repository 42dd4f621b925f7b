//go:build linux

package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// On the bench host (a 2-vCPU KVM guest) the latency of waking an idle vCPU
// flips between regimes minutes long, outside the program's control: the
// guest halts when idle, and how fast the host brings it back depends on the
// host's adaptive halt polling and on its other tenants. Every metric that
// waits on wake-ups (round trips, control exchanges, even CPU per op) moved
// 20-35 % between runs with it. One lowest-priority spinner per CPU keeps
// the vCPUs from halting — the cure idle=poll is on bare metal: a woken
// thread preempts the spinner at once. The spinners are separate processes,
// so their CPU time is not in this process's getrusage. They run for the
// whole of the run. That costs a streaming workload about a tenth of its
// goodput (with no CPU ever idle the kernel wakes the receiver on the
// sender's CPU more often), and it is the price of numbers that repeat:
// README.md, "Noise", has the measurements.

// spinFlag is the hidden first argument that turns a re-executed copy of the
// benchmark into a spinner.
const spinFlag = "-spin-child"

// spin pins the process to the nth CPU it is allowed on, at the lowest
// priority, and never returns. Unpinned, the balancer sees two
// near-weightless tasks and is content to leave both on one CPU while the
// other halts.
func spin(nth string) {
	runtime.GOMAXPROCS(1)
	die := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "bench: spinner: %s: %v\n", what, err)
		os.Exit(2)
	}
	n, err := strconv.Atoi(nth)
	if err != nil {
		die("cpu index", err)
	}
	var allowed, mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		die("sched_getaffinity", errno)
	}
	for cpu, seen := 0, 0; cpu < 64*len(allowed); cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		if seen == n {
			mask[cpu/64] = 1 << (cpu % 64)
			break
		}
		seen++
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		die("sched_setaffinity", errno)
	}
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		die("setpriority", err)
	}
	for {
	}
}

// spinners are the running spinner processes; the nil value is no spinners.
type spinners struct {
	cmds []*exec.Cmd
	once sync.Once
	quit chan struct{} // closed to end the spinners
	done chan struct{} // closed once each has ended
}

// end kills the spinners and waits until each has ended. Main calls it, and
// so does the watchdog on its way out.
func (sp *spinners) end() {
	if sp == nil {
		return
	}
	sp.once.Do(func() { close(sp.quit) })
	<-sp.done
}

func (sp *spinners) count() int {
	if sp == nil {
		return 0
	}
	return len(sp.cmds)
}

// keepAwake starts one spinner per CPU on a host with no more CPUs than the
// benchmark keeps busy (GOMAXPROCS is 2). On a bigger host the process roams
// over CPUs no two spinners could cover, and one per CPU would burn the
// machine, so there it starts none; the run: line says how many run.
func keepAwake() (*spinners, error) {
	if runtime.NumCPU() > runtime.GOMAXPROCS(0) {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sp := &spinners{quit: make(chan struct{}), done: make(chan struct{})}
	started := make(chan error, 1)
	// The spinners must not outlive a benchmark that dies without calling
	// end, hence Pdeathsig — which fires when the thread that started the
	// child exits. So a goroutine of their own starts them, locked to its
	// thread, and stays parked there until end. (Locking main's goroutine
	// instead doubles the cost of every control op it drives.)
	go func() {
		runtime.LockOSThread()
		defer close(sp.done)
		var err error
		for i := 0; i < runtime.NumCPU() && err == nil; i++ {
			c := exec.Command(exe, spinFlag, strconv.Itoa(i))
			c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			if err = c.Start(); err == nil {
				sp.cmds = append(sp.cmds, c)
			}
		}
		started <- err
		<-sp.quit
		for _, c := range sp.cmds {
			c.Process.Kill()
			c.Wait()
		}
	}()
	if err := <-started; err != nil {
		sp.end()
		return nil, fmt.Errorf("starting spinner: %w", err)
	}
	return sp, nil
}
