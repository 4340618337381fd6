// Package apriori implements the level-wise Apriori frequent-itemset
// miner of Agrawal & Srikant (VLDB 1994), reference [1] of the paper. It
// serves two roles: the classic baseline against which FP-Growth's
// efficiency claim is benchmarked, and an independent oracle for the
// miner-agreement property tests (all backends must produce identical
// pattern sets). Candidate counting runs against the shared bitmap index
// of internal/itemset: each candidate's support is the cardinality of
// the intersection of its members' transaction bitmaps (word-wise ANDs
// over []uint64), replacing the classic per-transaction subset scan.
//
// The join/prune bookkeeping — candidate id storage, subset probe
// buffer, key buffer and the frequent-set membership map — is recycled
// through a sync.Pool, so a steady-state mine allocates little beyond
// its output.
package apriori

import (
	"sort"
	"sync"

	"cuisines/internal/itemset"
)

// Options tunes a mining run.
type Options struct {
	// MaxLen, if positive, bounds the size of mined itemsets.
	MaxLen int
}

// Mine returns all itemsets with relative support >= minSupport (fraction
// in (0,1], or absolute count if > 1), in canonical report order.
func Mine(d *itemset.Dataset, minSupport float64) []itemset.Pattern {
	return MineIndex(itemset.NewIndex(d), minSupport)
}

// MineWithOptions is Mine with explicit options.
func MineWithOptions(d *itemset.Dataset, minSupport float64, opts Options) []itemset.Pattern {
	return MineIndexWithOptions(itemset.NewIndex(d), minSupport, opts)
}

// MineIndex mines a prebuilt bitmap index (the shared representation all
// backends accept, so one index per region serves any of them).
func MineIndex(ix *itemset.Index, minSupport float64) []itemset.Pattern {
	return MineIndexWithOptions(ix, minSupport, Options{})
}

// idArena carves candidate id slices for one level from a recycled
// backing array. Growing abandons the old array to the slices already
// carved from it, so capacity converges after one mining run.
type idArena struct {
	buf  []int32
	used int
}

func (a *idArena) reset() { a.used = 0 }

func (a *idArena) grab(n int) []int32 {
	if a.used+n > len(a.buf) {
		size := 2 * (a.used + n)
		if size < 1024 {
			size = 1024
		}
		a.buf = make([]int32, size)
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// scratch is the pooled candidate-counting state of one mining run. Two
// arenas alternate across levels: level k's candidates must outlive the
// k+1 join that reads them, so the k+2 level is the earliest safe reuse.
type scratch struct {
	arenas [2]idArena
	sub    []int32
	keyBuf []byte
	inPrev map[string]bool
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{inPrev: make(map[string]bool)}
}}

// MineIndexWithOptions is MineIndex with explicit options.
func MineIndexWithOptions(ix *itemset.Index, minSupport float64, opts Options) []itemset.Pattern {
	if ix.NumTransactions() == 0 {
		return nil
	}
	minCount := ix.MinCount(minSupport)

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.arenas[0].reset()
	sc.arenas[1].reset()

	// Frequent 1-itemsets. Index ids are assigned in canonical item
	// order, so ascending ids are canonically sorted — the invariant the
	// prefix join below needs.
	var freq []int32
	for id := int32(0); int(id) < ix.NumItems(); id++ {
		if ix.Count(id) >= minCount {
			freq = append(freq, id)
		}
	}

	var out []itemset.Pattern

	// L1. Level k's candidate ids live in arena k%2.
	current := make([][]int32, 0, len(freq))
	for _, id := range freq {
		out = append(out, ix.Pattern([]int32{id}, ix.Count(id)))
		ids := sc.arenas[1].grab(1)
		ids[0] = id
		current = append(current, ids)
	}

	k := 1
	for len(current) > 0 {
		k++
		if opts.MaxLen > 0 && k > opts.MaxLen {
			break
		}
		arena := &sc.arenas[k%2]
		arena.reset()
		candidates := generateCandidates(current, sc, arena)
		if len(candidates) == 0 {
			break
		}
		// Count each surviving candidate against the vertical index.
		var next [][]int32
		for _, cand := range candidates {
			if c := ix.SupportCount(cand); c >= minCount {
				out = append(out, ix.Pattern(cand, c))
				next = append(next, cand)
			}
		}
		current = next
	}

	itemset.SortPatterns(out)
	return out
}

// generateCandidates performs the Apriori join + prune step on the sorted
// frequent (k-1)-itemsets: join pairs sharing the first k-2 ids, then
// discard candidates with an infrequent (k-1)-subset. Candidate storage
// comes from the level's arena; the membership map and probe buffers are
// the run's pooled scratch.
func generateCandidates(frequent [][]int32, sc *scratch, arena *idArena) [][]int32 {
	if len(frequent) == 0 {
		return nil
	}
	k1 := len(frequent[0])
	// Lexicographic order is required for the prefix join.
	sort.Slice(frequent, func(i, j int) bool { return lessIDs(frequent[i], frequent[j]) })
	clear(sc.inPrev)
	for _, f := range frequent {
		sc.keyBuf = appendIDsKey(sc.keyBuf[:0], f)
		sc.inPrev[string(sc.keyBuf)] = true
	}

	var cands [][]int32
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			a, b := frequent[i], frequent[j]
			if !samePrefix(a, b, k1-1) {
				break // sorted, so no later j can share the prefix
			}
			cand := arena.grab(k1 + 1)
			copy(cand, a)
			cand[k1] = b[k1-1]
			if sc.prune(cand) {
				cands = append(cands, cand)
			}
		}
	}
	return cands
}

// prune checks that all (k-1)-subsets of cand are frequent.
func (sc *scratch) prune(cand []int32) bool {
	if len(cand) <= 2 {
		return true // both 1-subsets are frequent by construction
	}
	if cap(sc.sub) < len(cand)-1 {
		sc.sub = make([]int32, 0, 2*len(cand))
	}
	for skip := range cand {
		sub := sc.sub[:0]
		for i, v := range cand {
			if i != skip {
				sub = append(sub, v)
			}
		}
		sc.keyBuf = appendIDsKey(sc.keyBuf[:0], sub)
		// Map lookup keyed by string(bytes) does not allocate.
		if !sc.inPrev[string(sc.keyBuf)] {
			return false
		}
	}
	return true
}

func samePrefix(a, b []int32, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessIDs(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func appendIDsKey(b []byte, ids []int32) []byte {
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return b
}
