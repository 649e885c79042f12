package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env is the report's environment block, filled mechanically.
type env struct {
	Nproc         int      `json:"nproc"`
	GOMAXPROCS    int      `json:"GOMAXPROCS"`
	GoVersion     string   `json:"go_version"`
	CPUModel      string   `json:"cpu_model"`
	GitCommit     string   `json:"git_commit"`
	Workload      string   `json:"workload"`
	Seed          uint64   `json:"seed"`
	Seconds       float64  `json:"seconds"`
	Connections   int      `json:"connections"`
	BccserveFlags []string `json:"bccserve_flags"`
}

func collectEnv(root string, r *run) env {
	return env{
		Nproc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		GitCommit:     gitCommit(root),
		Workload:      r.w.name,
		Seed:          r.seed,
		Seconds:       r.dur.Seconds(),
		Connections:   r.connections(),
		BccserveFlags: r.lastArgs,
	}
}

// connections is how many connections the load uses: one for a GET
// workload, one sweep connection plus the probe's for cold_sweep.
func (r *run) connections() int {
	if r.w.sweep {
		return 2
	}
	return 1
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is HEAD of the checkout's own repository, if it is one
// (only root/.git is consulted, never a repository around it).
func gitCommit(root string) string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "--git-dir", filepath.Join(root, ".git"), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}
