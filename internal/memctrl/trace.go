package memctrl

import (
	"fmt"
	"io"
	"sort"

	"rhohammer/internal/dram"
)

// Command tracing: an optional recorder for the DRAM command stream the
// controller issues. The paper's central metric — activations per
// refresh interval — is a property of this stream, and the recorder
// makes it directly measurable in tests and experiments instead of
// being inferred from aggregate counters.

// CmdKind enumerates traced DRAM commands.
type CmdKind uint8

const (
	// CmdACT is a row activation.
	CmdACT CmdKind = iota
	// CmdPRE is a precharge (implicit in row conflicts).
	CmdPRE
	// CmdREF is a refresh command.
	CmdREF
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("CmdKind(%d)", uint8(k))
	}
}

// Cmd is one traced command.
type Cmd struct {
	Kind CmdKind
	Bank int
	Row  uint64 // meaningful for ACT only
	At   float64
}

// Trace is a bounded recorder of controller commands. A zero Trace is
// disabled; arm it with Start.
type Trace struct {
	cmds  []Cmd
	limit int
	on    bool
}

// Start arms the trace with a command capacity. Once full, further
// commands are dropped (the prefix is kept): analyses want a contiguous
// window, and keeping the head makes recording O(1).
func (t *Trace) Start(limit int) {
	if limit <= 0 {
		limit = 1 << 20
	}
	t.limit = limit
	t.on = true
	t.cmds = t.cmds[:0]
}

// Stop disarms the trace, keeping recorded commands readable.
func (t *Trace) Stop() { t.on = false }

// Reset disarms the trace and discards its contents.
func (t *Trace) Reset() {
	t.on = false
	t.cmds = nil
}

// Commands returns the recorded stream in issue order.
func (t *Trace) Commands() []Cmd { return t.cmds }

// Record appends a command if armed and capacity remains. The
// controller records every command it issues itself; the compiled
// payload executor in internal/cpu, which runs the bank state machine
// inline, records its PRE and ACT commands here at the same decision
// points (its REFs go through AdvanceRefresh).
func (t *Trace) Record(c Cmd) {
	if !t.on || len(t.cmds) >= t.limit {
		return
	}
	t.cmds = append(t.cmds, c)
}

// ACTsPerInterval buckets the traced activations of one bank into
// tREFI-sized intervals and returns the per-interval counts — the
// quantity the paper calls the activation rate, and the budget TRR
// samplers observe.
func (t *Trace) ACTsPerInterval(bank int) []int {
	var acts []float64
	for _, c := range t.cmds {
		if c.Kind == CmdACT && c.Bank == bank {
			acts = append(acts, c.At)
		}
	}
	if len(acts) == 0 {
		return nil
	}
	sort.Float64s(acts)
	first := acts[0]
	nIntervals := int((acts[len(acts)-1]-first)/dram.TREFIns) + 1
	out := make([]int, nIntervals)
	for _, at := range acts {
		out[int((at-first)/dram.TREFIns)]++
	}
	return out
}

// RowCounts returns per-row ACT totals for one bank.
func (t *Trace) RowCounts(bank int) map[uint64]int {
	out := map[uint64]int{}
	for _, c := range t.cmds {
		if c.Kind == CmdACT && c.Bank == bank {
			out[c.Row]++
		}
	}
	return out
}

// WriteTo dumps the trace in a compact textual form, one command per
// line, for offline inspection.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, c := range t.cmds {
		n, err := fmt.Fprintf(w, "%.1f %s bank=%d row=%d\n", c.At, c.Kind, c.Bank, c.Row)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
