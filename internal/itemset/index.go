package itemset

import (
	"math/bits"
	"sort"
)

// Index is a vertical bitset view of a Dataset: every distinct item maps
// to a bitmap over transaction positions. It is the shared representation
// the mining backends (internal/miner) operate on — built once per
// region, then read concurrently by whichever algorithm is selected:
//
//   - support of an item is a cached popcount,
//   - support of a candidate itemset is an intersection cardinality
//     (Apriori's counting step, replacing per-transaction subset scans),
//   - Eclat intersects the bitmaps directly instead of merging tid lists,
//   - FP-Growth reads the horizontal projection (Txns) to build its tree.
//
// Every bitmap is a flat []uint64 of Words() words, one bit per
// transaction, carved from one arena. The miners only intersect items at
// or above the support threshold, and at the paper's thresholds those
// items are dense, so a word-wise AND is the cheapest intersection
// (DESIGN.md §10).
//
// Item ids are dense, 0-based and assigned in canonical item order
// (Item.Less), so id comparison is item comparison and id-sorted slices
// are canonically sorted. The Index is immutable after construction and
// safe for concurrent readers.
type Index struct {
	items []Item     // id -> item, canonically sorted
	bits  [][]uint64 // id -> bitmap (words slices of one arena)
	count []int      // id -> popcount of the item's bitmap
	txns  [][]int32  // transaction -> ascending item ids
	words int        // words per bitmap
}

// NewIndex builds the vertical index of the dataset. It interns the
// dataset's items in canonical order and hands the id lists to
// NewIndexIDs. Cost is one pass to collect the vocabulary plus one pass
// to fill the bitmaps; the result does not retain the Dataset.
func NewIndex(d *Dataset) *Index {
	counts := d.ItemCounts()
	items := make([]Item, 0, len(counts))
	totalBits := 0
	for it, c := range counts {
		items = append(items, it)
		totalBits += c
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Less(items[j]) })
	idOf := make(map[Item]int32, len(items))
	for i, it := range items {
		idOf[it] = int32(i)
	}

	// One backing arena serves every per-transaction id slice: the
	// horizontal projection costs two allocations total instead of one
	// per transaction.
	arena := make([]int32, totalBits)
	txns := make([][]int32, d.Len())
	for tid, t := range d.Transactions() {
		set := t.Items.Items()
		if len(set) == 0 {
			continue
		}
		ids := arena[:len(set):len(set)]
		arena = arena[len(set):]
		for k, it := range set { // canonical set order => ascending ids
			ids[k] = idOf[it]
		}
		txns[tid] = ids
	}
	return NewIndexIDs(items, txns)
}

// NewIndexIDs builds the index of len(txns) transactions over items,
// which must be distinct and sorted by Item.Less. txns[t] lists
// transaction t's item ids (positions in items), strictly ascending.
// The index takes ownership of both slices: txns becomes its horizontal
// projection (Txns).
func NewIndexIDs(items []Item, txns [][]int32) *Index {
	ix := &Index{items: items, txns: txns, words: (len(txns) + 63) / 64}
	ix.count = make([]int, len(items))
	arena := make([]uint64, len(items)*ix.words)
	ix.bits = make([][]uint64, len(items))
	for i := range ix.bits {
		ix.bits[i] = arena[i*ix.words : (i+1)*ix.words : (i+1)*ix.words]
	}
	for tid, ids := range txns {
		for _, id := range ids {
			ix.count[id]++
			ix.bits[id][tid>>6] |= 1 << (uint(tid) & 63)
		}
	}
	return ix
}

// NumTransactions returns the number of transactions indexed (including
// empty ones, which carry no bits but count toward relative support).
func (ix *Index) NumTransactions() int { return len(ix.txns) }

// NumItems returns the number of distinct items.
func (ix *Index) NumItems() int { return len(ix.items) }

// Item returns the item with the given id.
func (ix *Index) Item(id int32) Item { return ix.items[id] }

// Bits returns the item's transaction bitmap. The slice is shared index
// state and must not be modified.
func (ix *Index) Bits(id int32) []uint64 { return ix.bits[id] }

// Count returns the item's support count (the popcount of its bitmap).
func (ix *Index) Count(id int32) int { return ix.count[id] }

// Words returns the bitmap length in 64-bit words, the buffer size
// intersection scratch space needs.
func (ix *Index) Words() int { return ix.words }

// Txns returns the horizontal projection: per transaction, the ascending
// item ids. Shared index state; must not be modified.
func (ix *Index) Txns() [][]int32 { return ix.txns }

// MinCount converts a relative support threshold to the smallest
// absolute count satisfying it, sharing Dataset.MinCount's convention.
func (ix *Index) MinCount(support float64) int {
	return minCount(len(ix.txns), support)
}

// SupportCount returns the number of transactions containing every item
// of ids: the cardinality of the intersection of their bitmaps, computed
// word by word without materializing it. An empty id list counts every
// transaction (the empty set's support convention).
func (ix *Index) SupportCount(ids []int32) int {
	switch len(ids) {
	case 0:
		return ix.NumTransactions()
	case 1:
		return ix.count[ids[0]]
	}
	n := 0
	first, rest := ix.bits[ids[0]], ids[1:]
	for w := 0; w < ix.words; w++ {
		x := first[w]
		for _, id := range rest {
			x &= ix.bits[id][w]
			if x == 0 {
				break
			}
		}
		n += bits.OnesCount64(x)
	}
	return n
}

// Pattern converts a mined id set to a Pattern with relative support
// measured against the index's transaction count. ids must be the
// itemset in any order; count its support count.
func (ix *Index) Pattern(ids []int32, count int) Pattern {
	items := make([]Item, len(ids))
	for i, id := range ids {
		items[i] = ix.items[id]
	}
	return Pattern{
		Items:   NewSet(items...),
		Count:   count,
		Support: float64(count) / float64(ix.NumTransactions()),
	}
}

// AndInto sets dst = a & b and returns the popcount of the result. All
// three slices must have equal length; dst may alias a or b.
func AndInto(dst, a, b []uint64) int {
	n := 0
	for i := range dst {
		v := a[i] & b[i]
		dst[i] = v
		n += bits.OnesCount64(v)
	}
	return n
}
