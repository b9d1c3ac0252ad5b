package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// encodedScopes is the classification of every leaf field of Config: the
// scopes whose canonical encoding the field moves. A field added to
// Config (or to window.Config, solver.Config and their nested structs)
// must be listed here or in notEncoded, or TestEveryConfigFieldClassified
// fails — an unlisted field would silently serve stale cache entries.
var encodedScopes = map[string]Scope{
	"Rounds":                     ScopeJob,
	"Window.Near":                solveScopes,
	"Window.PerPairCap":          solveScopes,
	"Window.UseUnsafeAPIs":       solveScopes,
	"Solver.Lambda":              solveScopes,
	"Solver.RareCoef":            solveScopes,
	"Solver.Threshold":           solveScopes,
	"Solver.Hyp.MostlyProtected": solveScopes,
	"Solver.Hyp.SyncsAreRare":    solveScopes,
	"Solver.Hyp.AcqTimeVaries":   ScopeJob | ScopeOffline,
	"Solver.Hyp.MostlyPaired":    solveScopes,
	"Solver.Hyp.ReadAcqWriteRel": solveScopes,
	"Solver.Hyp.SingleRole":      solveScopes,
	"Solver.KeepRacyWindows":     ScopeJob,
	"Solver.SoftSingleRole":      solveScopes,
	"Solver.MaxLPIters":          solveScopes,
	"Solver.Weights.Acquire":     solveScopes,
	"Solver.Weights.Release":     solveScopes,
	"Delay":                      ScopeJob,
	"DelayProbability":           ScopeJob,
	"Seed":                       ScopeJob,
	"StepDist":                   ScopeJob,
	"Accumulate":                 ScopeJob,
	"InjectDelays":               ScopeJob,
	"RemoveRacyMP":               solveScopes,
	"MaxStepsPerTest":            ScopeJob,
}

// notEncoded lists the Config fields no key hashes, with the reason.
var notEncoded = map[string]string{
	"Parallelism":        "results are bit-identical at every worker-pool size",
	"Solver.Parallelism": "LP components solve bit-identically at any fan-out",
	"ColdStart":          "warm and cold solves are equivalent (TestWarmColdEquivalence)",
	"DisableTracing":     "tracing never changes results (TestDisableTracingStillInfers)",
	"Observer":           "observability hook; receives results, never changes them",
	"StaticPriors":       "refine seeding only moves the reported round-0 snapshot; a seeded campaign runs outside the job and checkpoint paths",
}

// leafFields returns the dotted path of every non-struct field under t.
func leafFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// perturbField sets the leaf at path in cfg to a value different from its
// current one; false for kinds the encoding cannot hold.
func perturbField(cfg *Config, path string) bool {
	v := reflect.ValueOf(cfg).Elem()
	for _, name := range strings.Split(path, ".") {
		v = v.FieldByName(name)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.375)
	case reflect.String:
		v.SetString("zipf")
	default:
		return false
	}
	return true
}

// TestEveryConfigFieldClassified perturbs every leaf field of Config and
// checks that exactly the expected scopes' encodings move.
func TestEveryConfigFieldClassified(t *testing.T) {
	base := DefaultConfig()
	seen := make(map[string]bool)
	for _, path := range leafFields(reflect.TypeOf(base), "") {
		seen[path] = true
		want, encoded := encodedScopes[path]
		_, excluded := notEncoded[path]
		if encoded == excluded {
			t.Errorf("%s: list it in exactly one of encodedScopes or notEncoded", path)
			continue
		}
		cfg := base
		if !perturbField(&cfg, path) {
			if encoded {
				t.Errorf("%s: encoded field of a kind the test cannot perturb", path)
			}
			continue
		}
		var moved Scope
		for _, s := range []Scope{ScopeJob, ScopeOffline, ScopeStatic} {
			if !bytes.Equal(AppendConfig(nil, base, s), AppendConfig(nil, cfg, s)) {
				moved |= s
			}
		}
		if moved != want {
			t.Errorf("%s moves scopes %03b, want %03b", path, moved, want)
		}
	}
	for path := range encodedScopes {
		if !seen[path] {
			t.Errorf("encodedScopes lists %s, which is not a Config field", path)
		}
	}
	for path := range notEncoded {
		if !seen[path] {
			t.Errorf("notEncoded lists %s, which is not a Config field", path)
		}
	}
}

// TestConfigTagsUnique: within one scope every line has its own tag, so
// a tag names one field and text patching by tag is unambiguous.
func TestConfigTagsUnique(t *testing.T) {
	for _, s := range []Scope{ScopeJob, ScopeOffline, ScopeStatic} {
		tags := make(map[string]bool)
		for _, l := range configLines {
			if l.scopes&s == 0 {
				continue
			}
			if tags[l.tag] {
				t.Errorf("scope %03b: tag %q written twice", s, l.tag)
			}
			tags[l.tag] = true
		}
	}
}
