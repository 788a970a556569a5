package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// host is the fingerprint every result file carries, so two result sets
// are only compared when they come from the same kind of machine.
type host struct {
	NumCPU          int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	GoVersion       string `json:"go_version"`
	LLCBytes        int64  `json:"llc_bytes"` // 0 when /sys does not say
	WorkingSetBytes int64  `json:"working_set_bytes"`
}

func fingerprint(workingSet int64) host {
	return host{
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		GoVersion:       runtime.Version(),
		LLCBytes:        llcBytes(),
		WorkingSetBytes: workingSet,
	}
}

// llcBytes reads the size of cpu0's highest-level cache from sysfs.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var bestLevel int
	var best int64
	for _, d := range dirs {
		level, err1 := readInt(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || level < bestLevel {
			continue
		}
		if b := parseCacheSize(strings.TrimSpace(string(size))); b > 0 {
			bestLevel, best = level, b
		}
	}
	return best
}

func readInt(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(data)))
}

// parseCacheSize parses sysfs sizes such as "32K".
func parseCacheSize(s string) int64 {
	n, err := strconv.ParseInt(strings.TrimSuffix(s, "K"), 10, 64)
	if err != nil {
		return 0
	}
	if strings.HasSuffix(s, "K") {
		n <<= 10
	}
	return n
}
