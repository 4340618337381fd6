package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two overlapping children cover [10, 60): 50, not 30+40.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 60},
		// A child sticking out of its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 3, Name: "d", Start: 30, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30, 3: 40 - 5, 4: 40, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	got := layerSelfMS(append(spans, span{ID: 6, Req: 7, Name: "a", Start: 0, End: 2e6}), selfTimes(spans), "a", []int{0, 7, 8})
	if want := []float64{30e-6, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("layerSelfMS = %v, want %v (span 6 has no self time entry)", got, want)
	}
}

func TestRecorderSpans(t *testing.T) {
	var nilRec *recorder
	if id := nilRec.begin("x", 0, 0); id != 0 {
		t.Fatalf("nil recorder begin = %d", id)
	}
	nilRec.end(0)
	r := newRecorder()
	root := r.begin("op", 0, 1)
	child := r.begin("stage", root, 1)
	open := r.begin("unfinished", root, 1)
	r.end(child)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 || got[0].Name != "op" || got[1].Parent != root || open != 3 {
		t.Fatalf("snapshot = %+v (open span %d must be left out)", got, open)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 100, 999, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // reversed: the rule must sort
		}
		v, pct := tailPercentile(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: %d samples beyond p%.2f", n, beyond, pct*100)
		}
		if pct > 0.99 {
			t.Errorf("n=%d: percentile %v above 99", n, pct)
		}
		if n >= 1000 && pct != 0.99 {
			t.Errorf("n=%d: percentile %v, want 0.99", n, pct)
		}
		if n < 1000 && beyond != 10 {
			t.Errorf("n=%d: %d samples beyond, want exactly 10 (the highest such percentile)", n, beyond)
		}
	}
	if v, pct := tailPercentile([]float64{3, 1, 2}); v != 3 || pct != 1 {
		t.Errorf("ten or fewer samples: got %v at %v, want the maximum", v, pct)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestVariantSequenceIsSeeded(t *testing.T) {
	a := variantSequence(7, 100, 6)
	if b := variantSequence(7, 100, 6); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different sequences")
	}
	if c := variantSequence(8, 100, 6); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same order")
	}
	counts := map[string]int{}
	seen := map[string]bool{}
	cycles := 0
	for i, v := range a {
		if v.last {
			cycles++
		}
		counts[v.class]++
		if v.class == "revisit" {
			if !seen[v.query] {
				t.Errorf("variant %d revisits %s, which was never issued", i, v.query)
			}
		} else if v.class != "linkage" && seen[v.query] {
			t.Errorf("variant %d repeats %s", i, v.query)
		}
		seen[v.query] = true
	}
	want := map[string]int{"seed": 12, "support": 6, "linkage": 6, "revisit": 5}
	if !reflect.DeepEqual(counts, want) || cycles != 6 || !a[len(a)-1].last {
		t.Fatalf("class counts %v over %d cycles, want %v over 6", counts, cycles, want)
	}
}

func TestHitMixFollowsLoadgenWeights(t *testing.T) {
	m := newHitMix([]string{"A", "B", "C"})
	counts := map[string]int{}
	for i := 0; i < len(m.order); i++ {
		counts[m.path(i)]++
	}
	if counts["/v1/table"] != 4 || counts["/v1/stats"] != 2 || counts["/healthz"] != 1 {
		t.Fatalf("one round issues %v", counts)
	}
	// Region-cycling endpoints walk every region.
	if got := len(m.paths()); got != 5+3*3 {
		t.Fatalf("%d distinct paths, want 14", got)
	}
	// loadgen -revalidate 0.5: every second request of each endpoint,
	// starting with its second, is conditional.
	conditional := map[int][]bool{}
	for i := 0; i < 4*len(m.order); i++ {
		ep, k := m.slot(i)
		if k != len(conditional[ep]) {
			t.Fatalf("request %d: endpoint %d count %d, want %d", i, ep, k, len(conditional[ep]))
		}
		conditional[ep] = append(conditional[ep], revalidates(k))
	}
	for ep, cs := range conditional {
		for k, c := range cs {
			if c != (k%2 == 1) {
				t.Fatalf("endpoint %d request %d: conditional %v", ep, k, c)
			}
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metric names and
// units equal to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, got []struct{ Name, Unit string }) {
		if len(specs) != len(got) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(specs), len(got))
		}
		for i, s := range specs {
			if s.name != got[i].Name || s.unit != got[i].Unit {
				t.Errorf("%s[%d]: code %v, BENCHMARK.json %v", kind, i, s, got[i])
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no run function", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d run functions", len(doc.Workloads), len(workloads))
	}
}
