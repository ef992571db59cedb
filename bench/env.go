package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"ml4all/internal/linalg"
)

// envStamp records where a result was measured. It is written into the
// report file next to the metrics, so two reports can be told apart before
// their numbers are compared.
type envStamp struct {
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	FastBackend string `json:"fast_backend"`
	CPUFeatures string `json:"cpu_features"`
	StateDirFS  string `json:"state_dir_fs"`
}

// defaultProcs is the benchmark's parallelism, computed and not settable, so
// that no report is made at a parallelism the baseline never measured: every
// workload's process runs with GOMAXPROCS = engine Workers = min(nproc, 4),
// which cannot exceed the cores of the host. The load generator is a process
// of its own and sizes itself (loadgenMain): a closed loop runs on at most
// nproc threads; an open loop holds openLoopConns connections, more than
// cores, whose threads sleep in the kernel between requests — what they take
// from the server's cores is reported as loadgen's spin_core_share.
func defaultProcs() int {
	return min(runtime.NumCPU(), 4)
}

func stampEnv(seed int64, procs int, stateDir string) envStamp {
	return envStamp{
		Commit:      gitCommit(),
		Seed:        seed,
		NProc:       runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workers:     procs,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		FastBackend: linalg.FastBackend(),
		CPUFeatures: linalg.CPUFeatures(),
		StateDirFS:  fsTypeOf(stateDir),
	}
}

// gitCommit reads the checked-out commit from .git in the working directory
// (the repository root, where the benchmark is run from). Best effort: the
// driver's checkout is not a git repository, and a ref that only exists packed
// is not looked up.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		raw, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(raw))
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev
}

// fsNames maps statfs magic numbers to names for the filesystems a state
// directory is likely to sit on; fsync cost differs by an order of magnitude
// between them, so the report says which one the numbers come from.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
}

func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// resetPeakRSS returns freed memory to the kernel and restarts the process's
// resident-set high-water mark (writing 5 to /proc/self/clear_refs, Linux
// 4.0+). It reports whether the kernel accepted; where it does not, the peak
// simply includes set-up.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("bench: VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/self/status")
}
