package serve

import "rhohammer/internal/obs"

// Result-cache counters, exposed at /metrics next to the job counters.
var (
	cacheHits   = obs.Default.Counter("rhohammer_serve_result_cache_hits_total")
	cacheMisses = obs.Default.Counter("rhohammer_serve_result_cache_misses_total")
)

// cacheKey identifies a completed result. Campaign outputs are pure
// functions of (spec, seed, scale) — placement never changes result
// bytes (pinned by the determinism tests) — so those three fields are
// the whole key. Inline specs are never cached: their identity is the
// request body, not a registry name.
type cacheKey struct {
	spec  string
	seed  int64
	scale float64
}

// cacheKey returns the job's result-cache key.
func (j *Job) cacheKey() cacheKey {
	return cacheKey{spec: j.SpecName, seed: j.Seed, scale: j.Scale}
}
