package campaign

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
)

// Wire codec for per-cell results. The distributed fabric (see
// SCALING.md) executes cells on worker nodes and gathers on the
// coordinator, so the `any` a Spec.Exec returns must round-trip
// losslessly — the spec gathers the decoded values and its result
// feeds the canonical envelope, so any codec lossiness would break
// node-count byte-equality. JSON cannot do this (concrete types erase
// to map[string]any; array-keyed maps don't marshal at all), so cells
// travel as gob, the value wrapped in a single-field struct so
// interface-typed nils and primitive values encode uniformly. Grid
// registers its result type when it builds a spec, so a process
// decodes a spec's cells once it has built the spec.

// wireCell is the envelope gob actually encodes: a struct wrapper so
// the interface value's concrete type travels with it.
type wireCell struct {
	Result any
}

// Primitive cell results (the raw results of Spec literals) are
// wire-safe out of the box; Grid registers every other result type.
func init() {
	for _, v := range []any{"", int(0), int64(0), float64(0), false, []any(nil), map[string]any(nil)} {
		gob.Register(v)
	}
}

// registered holds the result types Grid has registered, so a build
// after the first (serve builds a spec per submit) costs one map read.
var registered sync.Map // reflect.Type → struct{}

// registerResult registers T under the name gob.Register gives it, the
// name stores and workers have always encoded it under.
func registerResult[T any]() {
	t := reflect.TypeFor[T]()
	if _, ok := registered.Load(t); ok {
		return
	}
	var zero T
	gob.Register(zero)
	registered.Store(t, struct{}{})
}

// EncodeResult serializes one cell result for the wire.
func EncodeResult(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wireCell{Result: v}); err != nil {
		return nil, fmt.Errorf("campaign: encode cell result (%T): %w", v, err)
	}
	return buf.Bytes(), nil
}

// DecodeResult recovers a cell result encoded by EncodeResult: a
// primitive or the result type of a spec built in this process. Only
// Spec.CheckResult tells whether the spec can gather it.
func DecodeResult(data []byte) (any, error) {
	var w wireCell
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("campaign: decode cell result: %w", err)
	}
	return w.Result, nil
}
