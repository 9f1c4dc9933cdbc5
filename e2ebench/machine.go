package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// machine identifies where a result was measured. Times are comparable
// only between results whose machine fields (all but Commit) agree; exact
// counts are comparable anywhere.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	// Commit is the source revision the benchmark was built from
	// ("unknown" outside a git checkout). It is part of the stamp, not
	// of the comparison: comparing two commits is the point.
	Commit string `json:"commit"`
}

func thisMachine() machine {
	return machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Commit:     buildCommit(),
	}
}

// sameMachine reports whether times measured on a and b are comparable.
func sameMachine(a, b machine) bool {
	a.Commit, b.Commit = "", ""
	return a == b
}

// cpuModel reads the CPU model name the kernel reports ("unknown" when it
// cannot be read).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildCommit returns the VCS revision the Go toolchain stamped into the
// binary, marked "-dirty" for a modified tree.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
