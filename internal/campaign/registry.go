package campaign

import (
	"fmt"
	"sort"
)

// Params is the experiment-level configuration a registry entry needs
// to materialize its Spec: the base seed and the workload scale. It
// deliberately excludes execution concerns (worker counts) — those
// belong to the Pool, and a Spec must describe identical work for any
// of them.
type Params struct {
	// Seed fixes all randomness.
	Seed int64
	// Scale multiplies the default (CI-sized) budgets.
	Scale float64
}

// Entry names one buildable campaign.
type Entry struct {
	// Name is the command-line and registry identity (e.g. "fig9").
	Name string
	// Kind classifies the artifact.
	Kind Kind
	// Title is a one-line human description for listings.
	Title string
	// Build materializes the Spec for the given parameters. Building is
	// cheap (it only constructs the cell grid); no cell runs until a
	// Pool executes the Spec.
	Build func(p Params) Spec
}

// Registry maps campaign names to their Specs. Registration happens at
// package init time; lookups afterwards are read-only, so the type
// needs no locking.
type Registry struct {
	entries []Entry
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Register adds an entry, panicking on structural misuse (empty name,
// nil Build, duplicate registration) — registries are assembled in
// init functions where a panic is an immediate programming-error
// signal, matching gob.Register and http.Handle.
func (r *Registry) Register(e Entry) {
	if e.Name == "" {
		panic("campaign: registering entry with empty name")
	}
	if e.Build == nil {
		panic(fmt.Sprintf("campaign: entry %q has no Build", e.Name))
	}
	if _, dup := r.byName[e.Name]; dup {
		panic(fmt.Sprintf("campaign: entry %q registered twice", e.Name))
	}
	r.byName[e.Name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// Lookup returns the entry with the given name.
func (r *Registry) Lookup(name string) (Entry, bool) {
	i, ok := r.byName[name]
	if !ok {
		return Entry{}, false
	}
	return r.entries[i], true
}

// Entries returns every entry in registration order.
func (r *Registry) Entries() []Entry {
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// Names returns every registered name in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Name
	}
	return out
}

// SortedNames returns every registered name in lexical order, for
// stable usage/error listings.
func (r *Registry) SortedNames() []string {
	out := r.Names()
	sort.Strings(out)
	return out
}

// SortedEntries returns every entry in lexical name order — the stable
// listing order user-facing surfaces (`experiments -list`, serverd's
// GET /v1/specs) present regardless of registration order, which is
// free to track the paper's narrative instead.
func (r *Registry) SortedEntries() []Entry {
	out := r.Entries()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
