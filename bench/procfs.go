package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// procSample is what the bench reads about a process from /proc.
type procSample struct {
	User, Sys             time.Duration // utime, stime
	PeakRSSBytes          int64         // VmHWM
	ReadBytes, WriteBytes int64         // storage-layer I/O from /proc/<pid>/io
}

func (p procSample) cpu() time.Duration { return p.User + p.Sys }

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go runs on.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d/", pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	if s.User, s.Sys, err = parseProcStat(stat); err != nil {
		return s, err
	}
	status, err := os.ReadFile(dir + "status")
	if err != nil {
		return s, err
	}
	s.PeakRSSBytes = parseProcField(status, "VmHWM:") * 1024 // the line reads "VmHWM:  123 kB"
	// /proc/<pid>/io can be unreadable under some sandboxes; I/O is a
	// per-layer detail, so its absence must not fail the run.
	if io, err := os.ReadFile(dir + "io"); err == nil {
		s.ReadBytes = parseProcField(io, "read_bytes:")
		s.WriteBytes = parseProcField(io, "write_bytes:")
	}
	return s, nil
}

// parseProcStat extracts utime and stime (fields 14 and 15). The command
// name in field 2 may contain spaces and parentheses, so fields are counted
// from the last ")".
func parseProcStat(data []byte) (user, sys time.Duration, err error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("bench: malformed /proc stat: %q", data)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("bench: short /proc stat: %q", data)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bench: non-numeric cpu times in /proc stat: %q", data)
	}
	return time.Duration(u) * clockTick, time.Duration(s) * clockTick, nil
}

// parseProcField returns the integer after "key" in a "key value" file.
func parseProcField(data []byte, key string) int64 {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64) // 0 for a malformed line
				return v
			}
		}
	}
	return 0
}

// selfCPU is the bench process's own CPU time, for the generator-validity check.
func selfCPU() time.Duration {
	s, err := readProc(os.Getpid())
	if err != nil {
		return 0
	}
	return s.cpu()
}
