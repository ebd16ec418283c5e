package hammer

import (
	"os"

	"rhohammer/internal/refmodel"
)

// Simcheck: the session-level switch for the differential audit mode.
// When enabled, every activation and refresh the session's device
// processes is replayed into a slow reference model
// (internal/refmodel) and the two are diffed at each refresh boundary,
// and the memory controller cross-checks every decode-cache hit
// against the immutable mapping. Divergence panics with a first-event
// report. The mode exists to catch fast-path bugs the moment they
// happen instead of as skewed experiment results; it slows simulation
// by roughly an order of magnitude and is off by default.

// SimcheckEnv is the environment variable that turns on the audit for
// every new session: set RHOHAMMER_SIMCHECK=1 (any non-empty value but
// "0") and run any experiment or test unchanged.
const SimcheckEnv = "RHOHAMMER_SIMCHECK"

// simcheckFromEnv reports whether the environment requests audit mode.
func simcheckFromEnv() bool {
	v := os.Getenv(SimcheckEnv)
	return v != "" && v != "0"
}

// EnableAudit attaches a reference-model auditor to the session's
// device and turns on the controller's decode-cache cross-check. The
// device must still be in its freshly-created (or Reset) state. The
// auditor panics on the first divergence.
func (s *Session) EnableAudit() *refmodel.Auditor {
	if s.auditor == nil {
		s.auditor = refmodel.NewAuditor(s.Dev)
		s.auditor.PanicOnDivergence = true
		s.Ctrl.EnableAudit()
	}
	return s.auditor
}

// Auditor returns the attached auditor, or nil when audit mode is off.
func (s *Session) Auditor() *refmodel.Auditor { return s.auditor }
