package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// requestsFor renders the first n requests of a seed's sequence.
func requestsFor(seed int64, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = nextRequest(seed, i)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := requestsFor(7, 600), requestsFor(7, 600)
	for i := range a {
		if !bytes.Equal(a[i].Body(), b[i].Body()) {
			t.Fatalf("request %d differs between two generations of seed 7", i)
		}
	}
	for pass := range 20 {
		x, y := passOrder(7, pass, len(sweepStatic)), passOrder(7, pass, len(sweepStatic))
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("pass %d order differs between two generations of seed 7", pass)
			}
		}
	}
}

func TestOtherSeedChangesColdKeepsHot(t *testing.T) {
	hotBodies := make(map[string]bool)
	for j := range hotSetSize {
		hotBodies[string(hotSearch(j).inlineBody())] = true
		hotBodies[string(hotSearch(j).scenarioBody())] = true
	}
	cold := make(map[int64]map[string]bool)
	for _, seed := range []int64{1, 2} {
		cold[seed] = make(map[string]bool)
		for _, r := range requestsFor(seed, 600) {
			body := string(r.Body())
			if r.Hot {
				if !hotBodies[body] {
					t.Fatalf("seed %d request %d: hot request outside the hot set", seed, r.Index)
				}
				continue
			}
			if hotBodies[body] || cold[seed][body] {
				t.Fatalf("seed %d request %d: cold request repeats an earlier search", seed, r.Index)
			}
			cold[seed][body] = true
		}
	}
	for body := range cold[1] {
		if cold[2][body] {
			t.Fatal("seeds 1 and 2 share a cold request")
		}
	}
}

func TestRequestMixIsBalanced(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		reqs := requestsFor(seed, 6*requestBlock)
		for b := 0; b < len(reqs); b += requestBlock {
			hot, inline := 0, 0
			shapes := make(map[string]int)
			for _, r := range reqs[b : b+requestBlock] {
				if r.Hot {
					hot++
				} else {
					shapes[r.Search.Shape.Name]++
				}
				if r.Inline {
					inline++
				}
			}
			if hot != requestBlock/2 || inline != requestBlock/2 || len(shapes) != len(serveShapes) {
				t.Fatalf("seed %d block at %d: %d hot, %d inline, cold shapes %v", seed, b, hot, inline, shapes)
			}
		}
	}
}

func TestExpectedCoversEverySweepSearch(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]sweepSearch{sweepStatic, sweepGeneric} {
		items, failures, err := prepareSweep(nil, list, expected)
		if err != nil {
			t.Fatal(err)
		}
		if len(failures) > 0 {
			t.Fatalf("pinned fingerprints disagree: %v", failures)
		}
		if len(items) != len(list) {
			t.Fatalf("compiled %d of %d searches", len(items), len(list))
		}
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		reported []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.declared) != len(c.reported) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the benchmark reports %d", len(c.declared), len(c.reported))
		}
		for i, d := range c.declared {
			if d.Name != c.reported[i].Name || d.Unit != c.reported[i].Unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", i, d.Name, d.Unit, c.reported[i].Name, c.reported[i].Unit)
			}
		}
	}
}

func TestSelfTimeAndChildSums(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "search", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "adversary.plan", Start: 0, End: 2 * ms},
		{ID: 3, Parent: 1, Name: "adversary.sweep", Start: 2 * ms, End: 9 * ms},
		{ID: 4, Parent: 3, Name: "adversary.shard", Start: 2 * ms, End: 8 * ms},
		{ID: 5, Parent: 3, Name: "adversary.shard", Start: 3 * ms, End: 9 * ms},
		{ID: 6, Parent: 1, Name: "adversary.merge", Start: 9 * ms, End: 10 * ms},
	}
	ss := indexSpans(spans)
	self := ss.selfTimes()
	if self["adversary.sweep"] != 0 {
		t.Errorf("sweep self time %v, want 0: its concurrent shards cover it", self["adversary.sweep"])
	}
	if self["search"] != 0 || self["adversary.shard"] != 12*ms {
		t.Errorf("self times %v", self)
	}
	if worst, bad := ss.childSumDeviation(childSumTolerance, "search"); worst != 0 || bad != 0 {
		t.Errorf("child sums deviate %v (%d violations), want 0", worst, bad)
	}
	spans[5].End = 9*ms + 100*time.Microsecond // the children cover 9.1 of 10 ms
	if _, bad := indexSpans(spans).childSumDeviation(childSumTolerance, "search"); bad != 0 {
		t.Error("a 9% gap counted as a violation")
	}
	spans[2].End = 7 * ms // the children now cover 7.1 of 10 ms
	if _, bad := indexSpans(spans).childSumDeviation(childSumTolerance, "search"); bad != 1 {
		t.Error("a 29% gap was not counted")
	}
}
