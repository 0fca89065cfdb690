package main

import (
	"bytes"
	"os"
	"strconv"
)

// readSteal returns the hypervisor's steal counter: the eighth field of the
// "cpu" line of /proc/stat, in jiffies summed over CPUs. On a shared host
// stolen time is what moves latency between runs of the same code, so the
// report prints it next to the figures.
func readSteal() (uint64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(string(f[8]), 10, 64)
	return v, err == nil
}
