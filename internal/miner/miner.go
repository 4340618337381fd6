// Package miner defines the frequent-itemset mining backend layer: a
// single Miner interface over the shared bitset transaction index
// (itemset.Index) and the three implementations (Apriori, Eclat,
// FP-Growth). The running system mines with Default only; the other
// backends are kept for the agreement tests and the P6 benchmark
// (DESIGN.md §9).
//
// Every backend emits the identical sorted pattern set for the same
// index and threshold — pinned by the byte-identity and randomized
// agreement tests in this package — so changing Default changes how
// fast the mine stage runs, never its output. That is why no backend
// name enters an artifact or cache key.
package miner

import (
	"cuisines/internal/apriori"
	"cuisines/internal/eclat"
	"cuisines/internal/fpgrowth"
	"cuisines/internal/itemset"
)

// Miner is one frequent-itemset mining backend. Mine returns every
// itemset whose relative support in the indexed transactions is at
// least minSupport (a fraction in (0, 1], or an absolute count if > 1),
// in canonical report order (itemset.SortPatterns). Implementations
// must be stateless and safe for concurrent use: one Miner value serves
// every region fan-out worker.
type Miner interface {
	// Name returns the canonical lowercase backend name ("eclat").
	Name() string
	// Mine mines the prebuilt index at the given support threshold.
	Mine(ix *itemset.Index, minSupport float64) []itemset.Pattern
}

// backend adapts a mining function to the Miner interface.
type backend struct {
	name string
	mine func(*itemset.Index, float64) []itemset.Pattern
}

func (b backend) Name() string { return b.name }
func (b backend) Mine(ix *itemset.Index, minSupport float64) []itemset.Pattern {
	return b.mine(ix, minSupport)
}

// The three built-in backends.
var (
	// Apriori is the level-wise baseline (Agrawal & Srikant 1994),
	// counting candidates against the bitset index.
	Apriori Miner = backend{"apriori", apriori.MineIndex}
	// Eclat intersects the index's bitmaps directly (Zaki 2000). It is
	// the fastest backend at the paper's per-cuisine scales (see the P6
	// benchmark table in README.md) and therefore the default.
	Eclat Miner = backend{"eclat", eclat.MineIndex}
	// FPGrowth is the paper's named algorithm (Han, Pei & Yin 2000).
	FPGrowth Miner = backend{"fpgrowth", fpgrowth.MineIndex}
)

// Default is the backend the system mines with — the P6 benchmark
// winner (backend × support × scale; see "Choosing a mining backend" in
// README.md). Changing it never changes any output, only how fast the
// mine stage runs.
var Default = Eclat

// All returns every backend in name order — the sweep the agreement
// tests and the P6 benchmark iterate over.
func All() []Miner {
	return []Miner{Apriori, Eclat, FPGrowth}
}
