package server

import (
	"reflect"
	"testing"

	"sherlock/internal/core"
)

// TestModeSpecKeyCompat: every legacy one-field-per-kind spec and its
// unified (mode, target) spelling must normalize to the same spec and
// therefore the same content key — a mode-shaped resubmission of a
// legacy job is a cache hit, never a recompute.
func TestModeSpecKeyCompat(t *testing.T) {
	base := core.DefaultConfig()
	cases := []struct {
		name   string
		legacy JobSpec
		mode   JobSpec
	}{
		{
			name:   "app",
			legacy: JobSpec{App: "App-1"},
			mode:   JobSpec{Mode: "app", Target: "App-1"},
		},
		{
			name:   "app generated",
			legacy: JobSpec{App: "gen:42,profile=go"},
			mode:   JobSpec{Mode: "app", Target: "gen:42,profile=go"},
		},
		{
			name:   "static",
			legacy: JobSpec{StaticApp: "App-2"},
			mode:   JobSpec{Mode: "static", Target: "App-2"},
		},
		{
			name:   "watch",
			legacy: JobSpec{WatchApp: "gen:7"},
			mode:   JobSpec{Mode: "watch", Target: "gen:7"},
		},
		{
			name:   "traces",
			legacy: JobSpec{Traces: []string{"doc-one", "doc-two"}},
			mode:   JobSpec{Mode: "traces", Target: []any{"doc-one", "doc-two"}},
		},
		{
			name:   "trace keys",
			legacy: JobSpec{TraceKeys: []string{"k1", "k2"}},
			mode:   JobSpec{Mode: "trace_keys", Target: []any{"k1", "k2"}},
		},
		{
			name:   "app with overrides",
			legacy: JobSpec{App: "App-1", Rounds: 5, Seed: 9},
			mode:   JobSpec{Mode: "app", Target: "App-1", Rounds: 5, Seed: 9},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			legacy, mode := c.legacy, c.mode
			if err := legacy.normalize(); err != nil {
				t.Fatalf("legacy normalize: %v", err)
			}
			if err := mode.normalize(); err != nil {
				t.Fatalf("mode normalize: %v", err)
			}
			if !reflect.DeepEqual(legacy, mode) {
				t.Fatalf("normalized specs differ:\nlegacy: %+v\nmode:   %+v", legacy, mode)
			}
			lk := JobKey(legacy, legacy.effectiveConfig(base))
			mk := JobKey(mode, mode.effectiveConfig(base))
			if lk != mk {
				t.Fatalf("keys differ: legacy %s vs mode %s", lk, mk)
			}
		})
	}
}

// TestModeSpecErrors covers the new validation paths the unified shape
// introduces.
func TestModeSpecErrors(t *testing.T) {
	for name, spec := range map[string]JobSpec{
		"unknown mode":        {Mode: "campaign", Target: "App-1"},
		"target without mode": {Target: "App-1"},
		"mode without target": {Mode: "app"},
		"empty string target": {Mode: "app", Target: ""},
		"array for app":       {Mode: "app", Target: []any{"App-1"}},
		"string for traces":   {Mode: "traces", Target: "doc"},
		"empty array":         {Mode: "trace_keys", Target: []any{}},
		"non-string element":  {Mode: "trace_keys", Target: []any{"k1", 7.0}},
		"mode plus legacy":    {Mode: "app", Target: "App-1", App: "App-2"},
	} {
		spec := spec
		t.Run(name, func(t *testing.T) {
			if err := spec.normalize(); err == nil {
				t.Fatalf("normalize(%+v) should fail", spec)
			}
		})
	}
}

// TestJobKeyStepDist: the scheduler step distribution joins the key only
// when it departs from the uniform default, so pre-dist keys (and their
// cache entries) stay addressable.
func TestJobKeyStepDist(t *testing.T) {
	spec := JobSpec{App: "App-1"}
	base := core.DefaultConfig()
	ref := JobKey(spec, spec.effectiveConfig(base))

	uniform := base
	uniform.StepDist = "uniform"
	if got := JobKey(spec, spec.effectiveConfig(uniform)); got != ref {
		t.Error("explicit uniform dist should hash like the default")
	}
	zipf := base
	zipf.StepDist = "zipf"
	zk := JobKey(spec, spec.effectiveConfig(zipf))
	if zk == ref {
		t.Error("zipf dist should change the key")
	}
	bursty := base
	bursty.StepDist = "bursty"
	if bk := JobKey(spec, spec.effectiveConfig(bursty)); bk == ref || bk == zk {
		t.Error("bursty dist should get its own key")
	}
}
