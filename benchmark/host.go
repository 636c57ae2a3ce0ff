package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostStamp says where a result was measured. CalibSpinMs is a fixed
// integer loop timed on this host: two result files are comparable only if
// theirs agree, whatever the CPU model strings say.
type hostStamp struct {
	Commit      string  `json:"commit"`
	Go          string  `json:"go"`
	CPU         string  `json:"cpu"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CalibSpinMs float64 `json:"calib_spin_ms"`
}

func stampHost() hostStamp {
	h := hostStamp{Commit: "unknown", Go: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CalibSpinMs: calibSpin()}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		h.CPU = v
	}
	return h
}

// spinSink keeps the calibration loop from being optimised away.
var spinSink uint64

// calibSpin times a fixed xorshift loop, best of three.
func calibSpin() float64 {
	best := time.Duration(1 << 62)
	for range 3 {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 40_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		best = min(best, time.Since(t0))
		spinSink += x
	}
	return float64(best) / 1e6
}

// procField returns the first "key : value" value in a /proc text file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's VmHWM in MB (10^6 bytes); 0 where /proc does
// not say.
func peakRSSMB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb * 1024 / 1e6
}
