// Canonical config encoding: the one table that decides which Config
// fields determine a result, and for which consumer. Every content
// address built from a Config is a walk of configLines filtered by one
// scope: the server's job keys (ScopeJob), checkpoint and posterior
// signatures (ScopeOffline, via ConfigSignature), and static report keys
// (ScopeStatic).
//
// Each entry writes one "tag=value" line. Floats use the %g form
// (shortest round-trip, deterministic in Go). Reordering entries,
// renaming a tag or changing a value format moves every key, so it needs
// a version bump in the callers' headers. A Config field that belongs to
// no scope is listed with its reason in encoding_test.go, which fails on
// any field left unclassified.
package core

import (
	"strconv"

	"sherlock/internal/sched"
	"sherlock/internal/solver"
)

// Scope is a set of consumers of the canonical config encoding.
type Scope uint8

const (
	// ScopeJob covers every field that determines a campaign's result.
	ScopeJob Scope = 1 << iota
	// ScopeOffline covers what an offline solve reads: window extraction,
	// the solver encoding and racy-window removal.
	ScopeOffline
	// ScopeStatic covers what a run-free solve reads: ScopeOffline minus
	// the acquisition-time hypothesis, which InferStatic forces off.
	ScopeStatic
)

// solveScopes is every scope that solves an LP.
const solveScopes = ScopeJob | ScopeOffline | ScopeStatic

// configLine is one entry of the encoding table. value appends the
// field's value; ok=false omits the line, for fields that join the
// encoding only when they leave a default that every older key was
// computed under (so those keys, and the entries filed under them, stay
// addressable).
type configLine struct {
	tag    string
	scopes Scope
	value  func(b []byte, c *Config) (_ []byte, ok bool)
}

var configLines = [...]configLine{
	intLine("rounds", ScopeJob, func(c *Config) int64 { return int64(c.Rounds) }),
	intLine("window.near", solveScopes, func(c *Config) int64 { return c.Window.Near }),
	intLine("window.perpaircap", solveScopes, func(c *Config) int64 { return int64(c.Window.PerPairCap) }),
	boolLine("window.unsafeapis", solveScopes, func(c *Config) bool { return c.Window.UseUnsafeAPIs }),
	floatLine("solver.lambda", solveScopes, func(c *Config) float64 { return c.Solver.Lambda }),
	floatLine("solver.rarecoef", solveScopes, func(c *Config) float64 { return c.Solver.RareCoef }),
	floatLine("solver.threshold", solveScopes, func(c *Config) float64 { return c.Solver.Threshold }),
	{"solver.hyp", ScopeJob | ScopeOffline, func(b []byte, c *Config) ([]byte, bool) {
		return appendHyp(b, c.Solver.Hyp, true), true
	}},
	{"solver.hyp", ScopeStatic, func(b []byte, c *Config) ([]byte, bool) {
		return appendHyp(b, c.Solver.Hyp, false), true
	}},
	// The engine derives the effective setting from RemoveRacyMP; the raw
	// field stays in job keys because every existing key hashes it.
	boolLine("solver.keepracy", ScopeJob, func(c *Config) bool { return c.Solver.KeepRacyWindows }),
	boolLine("solver.softsinglerole", solveScopes, func(c *Config) bool { return c.Solver.SoftSingleRole }),
	intLine("solver.maxlpiters", solveScopes, func(c *Config) int64 { return int64(c.Solver.MaxLPIters) }),
	{"solver.weights", solveScopes, func(b []byte, c *Config) ([]byte, bool) {
		if c.Solver.Weights.IsDefault() {
			return b, false
		}
		r := c.Solver.Weights.Resolved()
		b = strconv.AppendFloat(b, r.Acquire, 'g', -1, 64)
		b = append(b, ',')
		return strconv.AppendFloat(b, r.Release, 'g', -1, 64), true
	}},
	intLine("delay", ScopeJob, func(c *Config) int64 { return c.Delay }),
	floatLine("delayprob", ScopeJob, func(c *Config) float64 { return c.DelayProbability }),
	intLine("seed", ScopeJob, func(c *Config) int64 { return c.Seed }),
	boolLine("accumulate", ScopeJob, func(c *Config) bool { return c.Accumulate }),
	boolLine("injectdelays", ScopeJob, func(c *Config) bool { return c.InjectDelays }),
	boolLine("removeracymp", solveScopes, func(c *Config) bool { return c.RemoveRacyMP }),
	intLine("maxsteps", ScopeJob, func(c *Config) int64 { return int64(c.MaxStepsPerTest) }),
	// "" and sched.DistUniform dispatch identically.
	{"sched.dist", ScopeJob, func(b []byte, c *Config) ([]byte, bool) {
		if c.StepDist == "" || c.StepDist == sched.DistUniform {
			return b, false
		}
		return append(b, c.StepDist...), true
	}},
}

// AppendConfig appends cfg's canonical encoding for scope to b: one
// "tag=value\n" line per table entry in scope, in table order.
func AppendConfig(b []byte, cfg Config, scope Scope) []byte {
	for i := range configLines {
		l := &configLines[i]
		if l.scopes&scope == 0 {
			continue
		}
		start := len(b)
		b = append(append(b, l.tag...), '=')
		var ok bool
		if b, ok = l.value(b, &cfg); !ok {
			b = b[:start]
			continue
		}
		b = append(b, '\n')
	}
	return b
}

func intLine(tag string, s Scope, get func(c *Config) int64) configLine {
	return configLine{tag, s, func(b []byte, c *Config) ([]byte, bool) {
		return strconv.AppendInt(b, get(c), 10), true
	}}
}

func floatLine(tag string, s Scope, get func(c *Config) float64) configLine {
	return configLine{tag, s, func(b []byte, c *Config) ([]byte, bool) {
		return strconv.AppendFloat(b, get(c), 'g', -1, 64), true
	}}
}

func boolLine(tag string, s Scope, get func(c *Config) bool) configLine {
	return configLine{tag, s, func(b []byte, c *Config) ([]byte, bool) {
		return strconv.AppendBool(b, get(c)), true
	}}
}

// appendHyp writes the hypothesis switches as comma-separated booleans,
// leaving AcqTimeVaries out when acqTime is false.
func appendHyp(b []byte, h solver.Hypotheses, acqTime bool) []byte {
	b = strconv.AppendBool(b, h.MostlyProtected)
	b = strconv.AppendBool(append(b, ','), h.SyncsAreRare)
	if acqTime {
		b = strconv.AppendBool(append(b, ','), h.AcqTimeVaries)
	}
	for _, on := range [...]bool{h.MostlyPaired, h.ReadAcqWriteRel, h.SingleRole} {
		b = strconv.AppendBool(append(b, ','), on)
	}
	return b
}
