package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/hdc"
)

// environment is stamped on every output, so a swing between two result
// files can be told apart from a machine or toolchain change.
type environment struct {
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Go           string `json:"go"`
	Commit       string `json:"commit"`
	KernelFloat  string `json:"kernel_float"`
	KernelPacked string `json:"kernel_packed"`
}

func readEnvironment() environment {
	env := environment{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown",
		KernelFloat: hdc.KernelPath(), KernelPacked: bitpack.KernelPath(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	// The commit is known only when the binary was built inside a git
	// work tree; the benchmark driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}
