package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
)

// The golden contract: the pinned campaigns rendered at a fixed
// (seed, scale) must hash to known values. Any change to an RNG stream,
// the simulation physics, or the rendering shows up here; speed and
// structure changes do not. TestGoldenOutputs enforces the contract in
// the test suite and `goldenhash -check` enforces it from the command
// line.

// Golden pins one campaign's rendered output hash.
type Golden struct {
	Name   string
	SHA256 string
}

// GoldenConfig is the fixed configuration the golden hashes were
// captured at.
func GoldenConfig() Config { return Config{Seed: 42, Scale: 0.5} }

// Goldens returns the pinned campaigns and their expected output
// hashes, captured after the campaign-engine refactor introduced
// per-cell seed derivation (stats.SplitSeed over "spec/cellKey"). That
// derivation changed every RNG stream once, intentionally; from here on
// the hashes again pin simulation results bit-for-bit. The chain
// refactor added e2e (pinning the buddy/rho/pte chain with the legacy
// row-%16 base-row rule: the §5.3 end-to-end rows) and chain (pinning
// the allocator x hammerer x victim grid). The trace-replay PR added
// replay-roundtrip: live session traces decoded and replayed through
// the differential oracle, pinning the trace schema, the codec and the
// replay engine alongside the physics. table5 runs all four recovery
// tools on all four platforms, pinning the attacker page pool
// (mem.NewPool) and the reverse-engineering stack, which no other
// golden builds.
func Goldens() []Golden {
	return []Golden{
		{"table3", "2f84c61faa970673992c87c7caad8b41e80f626407b980ad17179b7bf495096e"},
		{"table6", "7520fe96c3ca4f393ceeb276d3db98c402c830d4011c7e3347edef539380a1d3"},
		{"fig9", "5c9d28b458cec9d43994d3300a47d00dcfe0a5e49707f1c32f4e7068897b63d2"},
		{"e2e", "c7fcaa6323a0c9c57d56ce5e93a27a7a705c2ad9e6e64e0721ef6b9c9d4fcbd0"},
		{"chain", "5071e8202b325c2452733047602cfa11ae2cb3da98837c49ba70d9bbd1d0d8a4"},
		{"replay-roundtrip", "2299acc49b1c92061b7eac245a7b41edfe618619f2bab6eb1eda722d27d7dc92"},
		{"table5", "a46dd92ca730824d71773ac6e14c8fe6b0c41d3a8351da8000ba7a4136bcf83f"},
	}
}

// GoldenHash runs the named campaign at the golden configuration and
// returns the hex sha256 of its rendered bytes and their length.
func GoldenHash(name string) (hash string, size int, err error) {
	r, err := Run(name, GoldenConfig())
	if err != nil {
		return "", 0, err
	}
	var buf bytes.Buffer
	r.Render(&buf)
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), buf.Len(), nil
}
