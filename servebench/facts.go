package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostFacts are the facts every result file records about where and how
// it was measured.
type hostFacts struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func gatherFacts(root string) hostFacts {
	return hostFacts{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(root),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the commit under test, or "unknown" outside a git
// checkout (an exported source tree has no history to ask).
func gitCommit(root string) string {
	if _, err := os.Stat(root + "/.git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
