package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// host is the record every result carries, so two results can be
// judged comparable or not.
type host struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	// SourceDigest hashes the Go sources measured, for checkouts that
	// carry no git metadata.
	SourceDigest string `json:"source_sha256"`
	// StoreFS is the filesystem of the output directory, which holds
	// the serve workload's store.
	StoreFS string `json:"store_fs"`
	// Comparable is false when a baseline record was given and its
	// nproc differs; Scaling flags single-CPU hosts, whose parallel
	// figures measure nothing.
	Comparable *bool  `json:"comparable,omitempty"`
	Scaling    string `json:"scaling,omitempty"`

	fsRefused string
}

// fsMagic names the statfs(2) filesystem types worth telling apart.
var fsMagic = map[int64]string{
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0xef53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
	0x65735546: "fuse",
}

func hostRecord(workload string, seed int64, out, baseline string) host {
	h := host{
		Workload: workload, Seed: seed,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: "unknown (no vcs metadata in this checkout)",
		SourceDigest: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitRev = s.Value
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(out, &st); err == nil {
		name, ok := fsMagic[int64(st.Type)]
		if !ok {
			name = "unknown"
		}
		h.StoreFS = name
		if name == "tmpfs" || name == "ramfs" {
			h.fsRefused = name
		}
	}
	if h.NumCPU == 1 {
		h.Scaling = "unmeasured: one CPU"
	}
	if baseline != "" {
		c := baselineNproc(baseline) == h.NumCPU
		h.Comparable = &c
	}
	return h
}

// baselineNproc reads nproc from a saved record line ("record {...}"
// or the bare JSON object); -1 when unreadable.
func baselineNproc(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return -1
	}
	text := strings.TrimSpace(string(data))
	text = strings.TrimPrefix(text, "record ")
	var rec struct {
		Host struct {
			NumCPU int `json:"nproc"`
		} `json:"host"`
	}
	if json.Unmarshal([]byte(text), &rec) != nil {
		return -1
	}
	return rec.Host.NumCPU
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// build output, in path order.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns the process's maximum resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memDelta measures allocation and GC work between two points.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop(layer map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	layer["runtime.alloc_mb"] = float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20)
	layer["runtime.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
}
