package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the traced mode's span recorder. Spans are recorded by
// the benchmark's own code around its calls into each layer's public
// functions — the program itself is not instrumented — kept in memory,
// and written out when the run ends.

// span is one timed call: its name (the layer and operation), the span
// that caused it, the search it belongs to, and counts recorded at the
// same boundary (runs executed, bytes built, ...).
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Search string             `json:"search"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"startNs"`
	End    time.Duration      `json:"endNs"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans. A nil *recorder records nothing, so untraced
// code paths call the same methods at no cost.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	rec *recorder
	s   span
}

// start opens a span under parent (0 for a root).
func (r *recorder) start(parent *openSpan, search, name string) *openSpan {
	if r == nil {
		return nil
	}
	o := &openSpan{rec: r, s: span{ID: r.nextID.Add(1), Search: search, Name: name, Start: time.Since(r.epoch)}}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	return o
}

// set records a count on the span.
func (o *openSpan) set(key string, v float64) {
	if o == nil {
		return
	}
	if o.s.Attrs == nil {
		o.s.Attrs = make(map[string]float64)
	}
	o.s.Attrs[key] = v
}

func (o *openSpan) end() { o.endAt(time.Now()) }

// endAt records the span as ending at t.
func (o *openSpan) endAt(t time.Time) {
	if o == nil {
		return
	}
	o.s.End = t.Sub(o.rec.epoch)
	o.rec.mu.Lock()
	o.rec.spans = append(o.rec.spans, o.s)
	o.rec.mu.Unlock()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanSet indexes recorded spans by name and by parent.
type spanSet struct {
	all      []span
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanSet {
	ss := spanSet{all: spans, byName: make(map[string][]span), children: make(map[int64][]span)}
	for _, s := range spans {
		ss.byName[s.Name] = append(ss.byName[s.Name], s)
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], s)
		}
	}
	return ss
}

// covered returns how much of [lo, hi) the given spans cover (the
// union of their intervals, so concurrent children count once).
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its children cover.
func (ss spanSet) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range ss.all {
		self[s.Name] += s.dur() - covered(s.Start, s.End, ss.children[s.ID])
	}
	return self
}

// childSumDeviation checks every root span of the given names: its
// direct children run one after another, so their durations must sum
// to the root's duration within tolerance. It returns the largest
// relative deviation seen and how many roots exceeded the tolerance.
func (ss spanSet) childSumDeviation(tolerance float64, roots ...string) (worst float64, violations int) {
	var checked []span
	for _, name := range roots {
		checked = append(checked, ss.byName[name]...)
	}
	for _, s := range checked {
		kids := ss.children[s.ID]
		if s.Parent != 0 || len(kids) == 0 || s.dur() <= 0 {
			continue
		}
		var sum time.Duration
		for _, k := range kids {
			sum += k.dur()
		}
		dev := float64(sum-s.dur()) / float64(s.dur())
		if dev < 0 {
			dev = -dev
		}
		worst = max(worst, dev)
		if dev > tolerance {
			violations++
		}
	}
	return worst, violations
}

// meanMs returns the mean duration of the named spans in
// milliseconds (0 when none was recorded).
func (ss spanSet) meanMs(name string) float64 {
	spans := ss.byName[name]
	if len(spans) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range spans {
		total += s.dur()
	}
	return float64(total) / float64(len(spans)) / 1e6
}

// nsPer returns the named spans' total duration in nanoseconds per
// unit of the given count attribute (0 when nothing was counted).
func (ss spanSet) nsPer(name, attr string) float64 {
	var total time.Duration
	var count float64
	for _, s := range ss.byName[name] {
		total += s.dur()
		count += s.Attrs[attr]
	}
	if count == 0 {
		return 0
	}
	return float64(total) / count
}

// sumAttr totals a count attribute over the named spans.
func (ss spanSet) sumAttr(name, attr string) float64 {
	var sum float64
	for _, s := range ss.byName[name] {
		sum += s.Attrs[attr]
	}
	return sum
}

// meanAttr averages a count attribute over the named spans.
func (ss spanSet) meanAttr(name, attr string) float64 {
	spans := ss.byName[name]
	if len(spans) == 0 {
		return 0
	}
	return ss.sumAttr(name, attr) / float64(len(spans))
}

// durationsMs returns the named spans' durations in milliseconds.
func (ss spanSet) durationsMs(name string) []float64 {
	out := make([]float64, 0, len(ss.byName[name]))
	for _, s := range ss.byName[name] {
		out = append(out, float64(s.dur())/1e6)
	}
	return out
}

// writeSpans writes the spans and the per-name self times to
// dir/spans-<workload>-seed<seed>.json.
func writeSpans(dir, workload string, seed int64, ss spanSet) (string, error) {
	self := make(map[string]float64)
	for name, d := range ss.selfTimes() {
		self[name] = float64(d) / 1e6
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfMs   map[string]float64 `json:"selfMs"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, ss.all})
	if err != nil {
		return "", fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
