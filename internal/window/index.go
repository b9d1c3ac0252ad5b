// Indexed window extraction: BuildWindows batches what BuildWindow does one
// conflict at a time. A per-thread time-sorted index turns each window into
// two binary searches plus an output copy, so extracting W windows from a
// trace of N events costs O(N + W·(log N + K)) for window size K instead of
// BuildWindow's O(W·N). App-1's traces (thousands of events, hundreds of
// conflicts per run) make this the Observer's hot path.
package window

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"sherlock/internal/trace"
)

// threadIndex holds one thread's candidate events in time order.
type threadIndex struct {
	times []int64
	cands []CandEvent
}

// Index is a reusable per-trace acceleration structure.
type Index struct {
	app, test string
	threads   map[int]*threadIndex
}

// op names a candidate operation; keyCachePool maps it to its key.
type op struct {
	kind trace.Kind
	name string
}

// keyCachePool holds caches of candidate keys by operation. Traces repeat
// a handful of static operations many times, within and across runs of a
// program, so NewIndex builds each key once per cache rather than once per
// event.
var keyCachePool = sync.Pool{New: func() any { return map[op]trace.Key{} }}

// maxCachedKeys bounds the caches kept for reuse: one trace with very many
// distinct names must not pin a large map in the pool.
const maxCachedKeys = 1 << 12

func putKeyCache(keys map[op]trace.Key) {
	if len(keys) <= maxCachedKeys {
		keyCachePool.Put(keys)
	}
}

// NewIndex builds the per-thread index of a trace. Events arrive
// time-ordered from the scheduler; out-of-order inputs are sorted
// defensively.
func NewIndex(tr *trace.Trace) *Index {
	idx := &Index{app: tr.App, test: tr.Test, threads: map[int]*threadIndex{}}
	// Size every thread's slices up front and carve them out of one
	// backing array per field.
	counts := map[int]int{}
	for i := range tr.Events {
		counts[tr.Events[i].Thread]++
	}
	times := make([]int64, len(tr.Events))
	cands := make([]CandEvent, len(tr.Events))
	off := 0
	keys := keyCachePool.Get().(map[op]trace.Key)
	defer putKeyCache(keys)
	for i := range tr.Events {
		e := &tr.Events[i]
		ti, ok := idx.threads[e.Thread]
		if !ok {
			n := counts[e.Thread]
			ti = &threadIndex{times: times[off : off : off+n], cands: cands[off : off : off+n]}
			off += n
			idx.threads[e.Thread] = ti
		}
		o := op{e.Kind, e.Name}
		k, ok := keys[o]
		if !ok {
			k = trace.EventKey(e)
			keys[o] = k
		}
		ti.times = append(ti.times, e.Time)
		ti.cands = append(ti.cands, CandEvent{Key: k, Time: e.Time})
	}
	byTime := func(a, b CandEvent) int { return cmp.Compare(a.Time, b.Time) }
	for _, ti := range idx.threads {
		if !slices.IsSortedFunc(ti.cands, byTime) {
			slices.SortStableFunc(ti.cands, byTime)
			for i, c := range ti.cands {
				ti.times[i] = c.Time
			}
		}
	}
	return idx
}

// between returns the thread's candidate events with lo < Time < hi, as a
// view over the index's backing array — no copy. Callers must treat the
// slice as read-only (the package-wide contract on window event slices);
// overlapping windows share the same backing elements.
func (ti *threadIndex) between(lo, hi int64) []CandEvent {
	if ti == nil {
		return nil
	}
	start := sort.Search(len(ti.times), func(i int) bool { return ti.times[i] > lo })
	end := sort.Search(len(ti.times), func(i int) bool { return ti.times[i] >= hi })
	if start >= end {
		return nil
	}
	return ti.cands[start:end:end]
}

// Window extracts one conflict's window using the index. Equivalent to
// BuildWindow on the same trace, except the event slices are views over the
// index (read-only, possibly shared between overlapping windows) rather
// than fresh copies.
func (idx *Index) Window(c Conflict) Window {
	return Window{
		App: idx.app, Test: idx.test,
		Pair:      PairID{First: c.A.Site, Second: c.B.Site},
		ThreadA:   c.A.Thread,
		ThreadB:   c.B.Thread,
		TA:        c.A.Time,
		TB:        c.B.Time,
		RelEvents: idx.threads[c.A.Thread].between(c.A.Time, c.B.Time),
		AcqEvents: idx.threads[c.B.Thread].between(c.A.Time, c.B.Time),
	}
}

// BuildWindows extracts every conflict's window from tr in one pass over
// the trace plus two binary searches per conflict.
func BuildWindows(tr *trace.Trace, conflicts []Conflict) []Window {
	if len(conflicts) == 0 {
		return nil
	}
	idx := NewIndex(tr)
	out := make([]Window, 0, len(conflicts))
	for _, c := range conflicts {
		out = append(out, idx.Window(c))
	}
	return out
}
