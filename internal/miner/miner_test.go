package miner_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"cuisines/internal/corpus"
	"cuisines/internal/itemset"
	"cuisines/internal/miner"
)

// TestAllOrder pins the backend sweep: every backend once, in name
// order, with Default among them.
func TestAllOrder(t *testing.T) {
	all := miner.All()
	if len(all) != 3 {
		t.Fatalf("All() has %d backends, want 3", len(all))
	}
	hasDefault := false
	for i, m := range all {
		if i > 0 && all[i-1].Name() >= m.Name() {
			t.Fatalf("All() not in name order: %q before %q", all[i-1].Name(), m.Name())
		}
		hasDefault = hasDefault || m.Name() == miner.Default.Name()
	}
	if !hasDefault {
		t.Fatalf("Default %q is not in All()", miner.Default.Name())
	}
}

// encodePatterns serializes a pattern slice the same way the pipeline's
// mine artifact does (gob), making "byte-identical output" literal.
func encodePatterns(t *testing.T, ps []itemset.Pattern) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBackendsByteIdenticalOnCorpus is the tentpole's acceptance test:
// all backends must produce byte-identical serialized
// pattern sets for every region of the calibrated corpus at both
// support thresholds. This is what licenses excluding the miner name
// from artifact and cache keys.
func TestBackendsByteIdenticalOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep is slow")
	}
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	all := miner.All()
	for _, region := range db.Regions() {
		ix := itemset.NewIndex(db.RegionDataset(region))
		for _, sup := range []float64{0.2, 0.35} {
			ref := encodePatterns(t, all[0].Mine(ix, sup))
			for _, m := range all[1:] {
				got := encodePatterns(t, m.Mine(ix, sup))
				if !bytes.Equal(ref, got) {
					t.Errorf("region %q sup %g: %s output differs from %s",
						region, sup, m.Name(), all[0].Name())
				}
			}
		}
	}
}

// TestBackendsAgreeOnRandomDatasets is the cross-miner agreement
// property test on randomized synthetic datasets: random transaction
// counts, item universes and support thresholds, not just
// corpus-derived shapes. Every backend pair must agree exactly
// (byte-identically, via the same gob framing as the corpus test).
func TestBackendsAgreeOnRandomDatasets(t *testing.T) {
	r := rand.New(rand.NewSource(20200426))
	all := miner.All()
	for trial := 0; trial < 60; trial++ {
		nTxn := 1 + r.Intn(150)
		universe := 2 + r.Intn(12)
		maxLen := 1 + r.Intn(8)
		txns := make([]itemset.Transaction, nTxn)
		for i := range txns {
			n := r.Intn(maxLen + 1) // empty transactions allowed
			var items []itemset.Item
			for j := 0; j < n; j++ {
				items = append(items, itemset.NewItem(
					string(rune('a'+r.Intn(universe))), itemset.Kind(r.Intn(3))))
			}
			txns[i] = itemset.Transaction{Items: itemset.NewSet(items...)}
		}
		ix := itemset.NewIndex(itemset.NewDataset(txns))
		sup := []float64{0.1, 0.2, 0.35, 0.5, 0.8}[r.Intn(5)]
		ref := all[0].Mine(ix, sup)
		refBytes := encodePatterns(t, ref)
		for _, m := range all[1:] {
			if got := encodePatterns(t, m.Mine(ix, sup)); !bytes.Equal(refBytes, got) {
				t.Fatalf("trial %d (txns=%d universe=%d sup=%g): %s disagrees with %s\n%s: %v\n%s: %v",
					trial, nTxn, universe, sup, m.Name(), all[0].Name(),
					all[0].Name(), ref, m.Name(), m.Mine(ix, sup))
			}
		}
	}
}

// TestIndexModesAgreeOnRandomDensityRegimes mines synthetic datasets
// spanning the density regimes of the item bitmaps — near-universal
// items (full words), mid-frequency items and rare items (nearly empty
// words), up to 70 000 transactions (1094 words) — with every backend.
// The backends must agree byte-identically, and every pattern's count
// must equal a plain scan of the transactions, which does not use the
// bitmap index at all.
func TestIndexModesAgreeOnRandomDensityRegimes(t *testing.T) {
	r := rand.New(rand.NewSource(20200808))
	regimes := []struct {
		nTxn  int
		probs []float64 // per-item transaction membership probability
		sup   float64
	}{
		{40, []float64{0.9, 0.7, 0.5, 0.3, 0.3, 0.1}, 0.05},
		{800, []float64{0.95, 0.6, 0.4, 0.2, 0.1, 0.05, 0.05, 0.01}, 0.15},
		{5000, []float64{0.9, 0.5, 0.3, 0.08, 0.03, 0.01, 0.005}, 0.3},
		{70_000, []float64{0.7, 0.4, 0.35, 0.1, 0.02}, 0.05},
	}
	all := miner.All()
	for ri, rg := range regimes {
		txns := make([]itemset.Transaction, rg.nTxn)
		for i := range txns {
			var items []itemset.Item
			for j, p := range rg.probs {
				if r.Float64() < p {
					items = append(items, itemset.NewItem(string(rune('a'+j)), itemset.Kind(j%3)))
				}
			}
			txns[i] = itemset.Transaction{Items: itemset.NewSet(items...)}
		}
		d := itemset.NewDataset(txns)
		ix := itemset.NewIndex(d)
		ref := all[0].Mine(ix, rg.sup)
		if len(ref) == 0 {
			t.Fatalf("regime %d (txns=%d) sup %g: no patterns mined", ri, rg.nTxn, rg.sup)
		}
		for _, p := range ref {
			if want := d.SupportCount(p.Items); p.Count != want {
				t.Errorf("regime %d (txns=%d): %s counts %v in %d transactions, a scan finds %d",
					ri, rg.nTxn, all[0].Name(), p.Items, p.Count, want)
			}
		}
		refBytes := encodePatterns(t, ref)
		for _, m := range all[1:] {
			if got := encodePatterns(t, m.Mine(ix, rg.sup)); !bytes.Equal(refBytes, got) {
				t.Errorf("regime %d (txns=%d) sup %g: %s disagrees with %s",
					ri, rg.nTxn, rg.sup, m.Name(), all[0].Name())
			}
		}
	}
}
