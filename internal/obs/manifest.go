package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
)

// Manifest records everything needed to reproduce one command
// invocation byte-for-byte: the build identity, the full configuration
// (seed, scale, workers, raw argv), per-campaign and per-cell timings
// with the derived cell seeds, and a final counter snapshot. Any
// rendered table or figure can be re-run from its manifest alone:
// `experiments -seed <seed> -scale <scale> <name>` reproduces the
// artifact, and each cell's recorded seed pins its RNG stream.
type Manifest struct {
	Tool      string   `json:"tool"`
	Args      []string `json:"args,omitempty"`
	GitRev    string   `json:"git_rev,omitempty"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Date      string   `json:"date,omitempty"`

	Seed    int64   `json:"seed"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`

	Runs     []RunRecord      `json:"runs"`
	Nodes    []NodeRecord     `json:"nodes,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// NodeRecord is one worker node's contribution to a distributed run
// (serve's coordinator mode): how many cells it completed. Placement is
// pure scheduling noise — the canonical envelope is identical however
// cells land on nodes — so node records live only here, in the
// as-executed manifest.
type NodeRecord struct {
	Name  string `json:"name"`
	Cells int    `json:"cells,omitempty"`
}

// RunRecord is one campaign execution within the run.
type RunRecord struct {
	Name    string       `json:"name"`
	WallNS  int64        `json:"wall_ns"`
	Workers int          `json:"workers"`
	Err     string       `json:"error,omitempty"`
	Cells   []CellRecord `json:"cells,omitempty"`
}

// CellRecord is one grid cell of a campaign: its stable key, the seed
// derived from it (sufficient to replay the cell's RNG streams), its
// wall time and how it ended.
type CellRecord struct {
	Key      string `json:"key"`
	Seed     int64  `json:"seed"`
	WallNS   int64  `json:"wall_ns"`
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"error,omitempty"`
	// Node names the worker that ran the cell in a distributed run
	// (empty for local execution).
	Node string `json:"node,omitempty"`
}

// NewManifest fills the build-identity fields for the named tool.
func NewManifest(tool string, args []string) *Manifest {
	return &Manifest{
		Tool:      tool,
		Args:      args,
		GitRev:    gitRev(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// gitRev returns the VCS revision stamped into the binary by the Go
// toolchain, with a "+dirty" suffix for modified trees, or "" when the
// build carries no VCS info (e.g. `go test` binaries).
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	return rev + modified
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
