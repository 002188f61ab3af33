package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// selfCPU returns the user+system CPU time this process has used.
func selfCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// procCPU returns the user+system CPU time of process pid, read from
// /proc/<pid>/stat at clock-tick resolution.
func procCPU(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from the contents of
// /proc/<pid>/stat. The command name (field 2) may contain spaces, so
// fields are counted from the closing parenthesis.
func parseStatCPU(b []byte) (int64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseInt(string(f[11]), 10, 64)
	st, err2 := strconv.ParseInt(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return (ut + st) * (1e9 / clockTicks), nil
}

// peakRSS returns the high-water resident set size of process pid in
// bytes (VmHWM); pid 0 means this process.
func peakRSS(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseHWM(b)
}

func parseHWM(b []byte) (int64, error) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: %v", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// hostSteal returns the CPU time the hypervisor gave to other guests and
// the total CPU time, both in clock ticks, summed over all CPUs since boot.
func hostSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("stat: malformed cpu line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(string(x), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("stat: %v", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
