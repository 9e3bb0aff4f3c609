package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted and how
// many samples lie strictly beyond it.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := rank(n, p)
	return sorted[r-1], n - r
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small epsilon keeps p*n/100 from rounding up past an exact integer.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// tailPercentiles are the tail percentiles a run may report, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90}

// highestTail returns the highest percentile of tailPercentiles that has at
// least minBeyond samples beyond it, or 0 when none has.
func highestTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// stealSeconds reads how long the host has kept this machine's CPUs from
// running when they had work, summed over CPUs, from /proc/stat.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / userHZ
}

// userHZ is the kernel's clock-tick rate for /proc/stat on Linux.
const userHZ = 100

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// host describes where a result was measured.
type host struct {
	Cores      int               `json:"cores"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	DataFS     string            `json:"data_fs"`
	Flush      map[string]string `json:"flush_policy"`
}

func hostInfo(dataDir string, flush map[string]string) host {
	return host{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), DataFS: fsType(dataDir), Flush: flush,
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	return rev + dirty
}

var fsMagic = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	0x01021997: "9p", 0x6A656A63: "virtiofs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
