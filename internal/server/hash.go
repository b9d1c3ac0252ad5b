// Content-addressed job keys. A job's key is the SHA-256 of a canonical
// byte encoding of everything that determines its result: the workload
// (benchmark application name, or the raw trace bytes for offline jobs)
// and the ScopeJob lines of the effective inference Config's canonical
// encoding (core.AppendConfig), written in a fixed order with explicit
// field tags. Two properties make the scheme safe as a cache address:
//
//   - Deterministic across processes: the encoding never touches map
//     iteration order, pointers, or wall-clock state, so the same
//     workload+config hashes identically on every run of every binary.
//   - Execution-irrelevant knobs are excluded: Config.Parallelism is NOT
//     hashed because results are bit-identical for every worker-pool size
//     (a PR 1 invariant) — a 4-worker submission hits the cache entry a
//     16-worker submission populated. The Observer and ColdStart are
//     likewise excluded: they change cost, not results (the warm/cold
//     equivalence tests enforce the latter).
//
// The encoding is versioned (keyEncodingV1); changing what gets hashed
// must bump the version so stale keys can never alias new content.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"sherlock/internal/apps"
	"sherlock/internal/core"
	"sherlock/internal/prog"
	"sherlock/internal/static"
)

const keyEncodingV1 = "sherlock-job-v1"

// JobKey computes the content address of a campaign or offline job: the
// workload from spec (App, TraceKeys, or Traces) plus the effective, fully
// resolved inference config. Static jobs are filed under StaticReportKey
// instead (see specKey).
func JobKey(spec JobSpec, cfg core.Config) string {
	h := sha256.New()
	writeWorkload(h, spec)
	h.Write(core.AppendConfig(nil, spec.effectiveConfig(cfg), core.ScopeJob))
	return hex.EncodeToString(h.Sum(nil))
}

// JobKeyFromConfigText is JobKey over a pre-rendered canonical config text
// (ConfigText of the executing server's BASE config) with the spec's
// overrides patched in textually. It exists for clients: a node publishes
// its base config text on /v1/cluster/info, and any client holding it can
// compute the exact content key a submission will get — and therefore
// which ring member owns it — without re-implementing config resolution.
func JobKeyFromConfigText(spec JobSpec, cfgText string) string {
	h := sha256.New()
	writeWorkload(h, spec)
	io.WriteString(h, applyOverrides(spec, cfgText))
	return hex.EncodeToString(h.Sum(nil))
}

// specKey is the content address a spec's result is filed under: the
// static report key for run-free jobs (shared with GET
// /v1/apps/{id}/static), JobKey for everything else.
func specKey(spec JobSpec, cfg core.Config) (string, error) {
	if spec.StaticApp == "" {
		return JobKey(spec, cfg), nil
	}
	p, err := apps.ByName(spec.StaticApp)
	if err != nil {
		return "", err
	}
	return StaticReportKey(p, cfg)
}

// writeWorkload writes the key's version header and workload lines.
func writeWorkload(w io.Writer, spec JobSpec) {
	io.WriteString(w, keyEncodingV1+"\n")
	switch {
	case spec.App != "":
		fmt.Fprintf(w, "kind=app\napp=%s\n", spec.App)
	case len(spec.TraceKeys) > 0:
		// Corpus keys are themselves content addresses (SHA-256 of each
		// trace's canonical encoding), so hashing the key list is hashing
		// the trace contents — resubmitting the same stored traces hits
		// the same cache entry regardless of which daemon ingested them.
		fmt.Fprintf(w, "kind=corpus\nkeys=%d\n", len(spec.TraceKeys))
		for _, k := range spec.TraceKeys {
			fmt.Fprintf(w, "key=%s\n", k)
		}
	default:
		fmt.Fprintf(w, "kind=traces\ntraces=%d\n", len(spec.Traces))
		for _, tr := range spec.Traces {
			fmt.Fprintf(w, "trace:%d\n", len(tr))
			io.WriteString(w, tr)
			io.WriteString(w, "\n")
		}
	}
}

// applyOverrides patches a canonical config text with the spec's override
// fields, line for line — the textual mirror of JobSpec.effectiveConfig.
// Over a zero base, effectiveConfig leaves exactly the overridden fields
// non-zero, so the lines where its encoding departs from the zero
// config's are the override lines, tagged and formatted by the table.
func applyOverrides(spec JobSpec, cfgText string) string {
	zero := core.AppendConfig(nil, core.Config{}, core.ScopeJob)
	isZero := make(map[string]bool)
	for _, l := range strings.SplitAfter(string(zero), "\n") {
		isZero[l] = true
	}
	set := core.AppendConfig(nil, spec.effectiveConfig(core.Config{}), core.ScopeJob)
	patch := make(map[string]string)
	for _, l := range strings.SplitAfter(string(set), "\n") {
		if !isZero[l] {
			tag, _, _ := strings.Cut(l, "=")
			patch[tag] = l
		}
	}
	if len(patch) == 0 {
		return cfgText
	}
	var b strings.Builder
	for _, l := range strings.SplitAfter(cfgText, "\n") {
		tag, _, _ := strings.Cut(l, "=")
		if p, ok := patch[tag]; ok {
			l = p
		}
		b.WriteString(l)
	}
	return b.String()
}

// ConfigText renders every result-relevant Config field in the canonical
// key encoding — the text JobKey hashes and /v1/cluster/info publishes.
func ConfigText(cfg core.Config) string {
	return string(core.AppendConfig(nil, cfg, core.ScopeJob))
}

// staticKeyEncodingV1 versions static-report content addresses.
const staticKeyEncodingV1 = "sherlock-static-report-v1"

// StaticReportKey computes the content address of a static inference
// report. Unlike campaign keys it hashes the PROGRAM (via the static
// package's structural hash), not just the app name, so a report computed
// by one build can never answer for a differently shaped program under the
// same name; and it hashes only the ScopeStatic config lines — rounds,
// seeds, and delays are execution knobs and would fracture the cache for
// no reason.
func StaticReportKey(app *prog.Program, cfg core.Config) (string, error) {
	ph, err := static.ProgramHash(app)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\napp=%s\nprogram=%s\n", staticKeyEncodingV1, app.Name, ph)
	h.Write(core.AppendConfig(nil, cfg, core.ScopeStatic))
	return hex.EncodeToString(h.Sum(nil)), nil
}
