//go:build linux

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock IDs for clock_gettime (see clock_gettime(2)).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling OS thread only
)

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno)) // only a kernel without the clock gets here
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time consumed so far by every thread of this
// process, excluding time the hypervisor stole from the VM.
func processCPU() time.Duration { return clockNow(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread. Callers pin
// themselves with runtime.LockOSThread so the reading stays theirs.
func threadCPU() time.Duration { return clockNow(clockThreadCPU) }

// procField returns the integer after "key" in a "key: value" proc
// file such as /proc/self/status or /proc/self/io.
func procField(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// residentMB is the process's resident set (VmRSS) in MiB.
func residentMB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmRSS")
	return float64(kb) / 1024, err
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB. It
// catches the top of every GC cycle, so it swings with GC timing.
func peakRSSMB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM")
	return float64(kb) / 1024, err
}

// writtenBytes is the process's cumulative write(2) byte count: file
// and socket writes alike.
func writtenBytes() (int64, error) { return procField("/proc/self/io", "wchar") }
