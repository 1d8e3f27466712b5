package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// host is the fingerprint every result is stamped with. Latencies are
// this host's, not a device's: reads are likely served from the
// operating system's page cache and fsync cost depends on the
// filesystem under the data directory.
type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
	DataFS     string `json:"data_fs"`
}

func fingerprint(dataDir string) host {
	return host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		DataFS:     fsType(dataDir),
	}
}

// cpuModel reads the model name the kernel reports, or "unknown".
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
