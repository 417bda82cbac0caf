package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env is the environment stamp every result carries.
type Env struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LoadAvg    string `json:"loadavg"` // 1-minute load average at start
}

func envStamp() Env {
	e := Env{Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg = f[0]
		}
	}
	return e
}

func (e Env) String() string {
	return fmt.Sprintf("commit %s, %s, nproc %d, GOMAXPROCS %d, load %s", e.Commit, e.Go, e.NProc, e.GOMAXPROCS, e.LoadAvg)
}
