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
// Bitmaps come in two layouts (see bitmap.go): the dense flat []uint64
// of the seed implementation, and roaring-style chunked containers for
// sparse universes. The layout is resolved once per index — by density
// under ModeAuto, or forced via NewIndexMode — and never changes any
// mined output, only the cost of intersections (pinned by the dense/
// chunked equivalence tests in internal/miner, arbitrated by the P6
// benchmark).
//
// Item ids are dense, 0-based and assigned in canonical item order
// (Item.Less), so id comparison is item comparison and id-sorted slices
// are canonically sorted. The Index is immutable after construction and
// safe for concurrent readers.
type Index struct {
	items []Item     // id -> item, canonically sorted
	bits  [][]uint64 // id -> dense bitmap (words slices of one arena); dense mode only
	bms   []Bitmap   // id -> bitmap view (both modes)
	count []int      // id -> popcount of the item's bitmap
	txns  [][]int32  // transaction -> ascending item ids
	words int        // words per dense bitmap
	mode  IndexMode  // resolved ModeDense or ModeChunked
}

// IndexMode selects the bitmap layout of an Index.
type IndexMode int

const (
	// ModeAuto resolves to ModeDense or ModeChunked per index by
	// density (see autoMode).
	ModeAuto IndexMode = iota
	// ModeDense forces the flat []uint64 layout (the seed layout).
	ModeDense
	// ModeChunked forces the roaring-style container layout.
	ModeChunked
)

// String returns the lowercase mode name.
func (m IndexMode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeDense:
		return "dense"
	case ModeChunked:
		return "chunked"
	default:
		return "mode(?)"
	}
}

// DefaultIndexMode is the layout NewIndex uses. ModeAuto lets each index
// pick by its own density; the thresholds and this default are
// arbitrated by the P6 miner-backend benchmark (README "Benchmark
// trajectory"), exactly like miner.Default — it is a pure performance
// knob that never changes mined output.
var DefaultIndexMode = ModeAuto

// autoMode resolves ModeAuto for a universe of n transactions holding
// totalBits set bits across numItems item bitmaps. Chunked pays off when
// bitmaps are sparse enough that walking a container's population beats
// scanning every word of a flat bitmap, and the universe is wide enough
// for the per-container bookkeeping to amortize; tiny or dense universes
// stay on the flat layout, which is a plain word loop over a few cache
// lines.
func autoMode(totalBits, numItems, n int) IndexMode {
	if n < 1024 || numItems == 0 {
		return ModeDense
	}
	if float64(totalBits) <= float64(numItems)*float64(n)/64 {
		return ModeChunked
	}
	return ModeDense
}

// NewIndex builds the vertical index of the dataset in DefaultIndexMode.
// Cost is one pass to collect the vocabulary plus one pass to fill the
// bitmaps; the result is self-contained and does not retain the Dataset.
func NewIndex(d *Dataset) *Index {
	return NewIndexMode(d, DefaultIndexMode)
}

// NewIndexMode is NewIndex with an explicit bitmap layout. It interns
// the dataset's items in canonical order and hands the id lists to
// NewIndexIDs.
func NewIndexMode(d *Dataset, mode IndexMode) *Index {
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
	return NewIndexIDs(items, txns, mode)
}

// NewIndexIDs builds the index of len(txns) transactions over items,
// which must be distinct and sorted by Item.Less. txns[t] lists
// transaction t's item ids (positions in items), strictly ascending.
// The index takes ownership of both slices: txns becomes its horizontal
// projection (Txns).
func NewIndexIDs(items []Item, txns [][]int32, mode IndexMode) *Index {
	n := len(txns)
	ix := &Index{items: items, txns: txns, words: (n + 63) / 64}
	ix.count = make([]int, len(items))
	totalBits := 0
	for _, ids := range txns {
		for _, id := range ids {
			ix.count[id]++
		}
		totalBits += len(ids)
	}

	ix.mode = mode
	if ix.mode == ModeAuto {
		ix.mode = autoMode(totalBits, len(items), n)
	}
	ix.bms = make([]Bitmap, len(items))
	switch ix.mode {
	case ModeDense:
		arena := make([]uint64, len(items)*ix.words)
		ix.bits = make([][]uint64, len(items))
		for i := range ix.bits {
			ix.bits[i] = arena[i*ix.words : (i+1)*ix.words]
			ix.bms[i] = Bitmap{n: n, dense: ix.bits[i]}
		}
		for tid, ids := range txns {
			for _, id := range ids {
				ix.bits[id][tid>>6] |= 1 << (uint(tid) & 63)
			}
		}

	case ModeChunked:
		// Array-container storage is carved from one arena too: item id's
		// window starts at the prefix sum of the preceding items' counts
		// and is at most its total population.
		arrArena := make([]uint16, totalBits)
		offsets := make([]int32, len(items)+1)
		for i, c := range ix.count {
			offsets[i+1] = offsets[i] + int32(c)
		}
		used := make([]int32, len(items))
		for i := range ix.bms {
			ix.bms[i].n = n
		}
		for tid, ids := range txns {
			for _, id := range ids {
				window := arrArena[offsets[id]:offsets[id+1]]
				used[id] = int32(ix.bms[id].setAscending(tid, window, int(used[id])))
			}
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

// Mode returns the resolved bitmap layout (ModeDense or ModeChunked).
func (ix *Index) Mode() IndexMode { return ix.mode }

// Bits returns the item's flat transaction bitmap in dense mode, nil in
// chunked mode. The slice is shared index state and must not be
// modified; layout-agnostic callers should use ItemBitmap.
func (ix *Index) Bits(id int32) []uint64 { return ix.bms[id].dense }

// ItemBitmap returns the item's transaction bitmap in the index's
// layout. Shared index state; must not be modified or used as an
// intersection target.
func (ix *Index) ItemBitmap(id int32) *Bitmap { return &ix.bms[id] }

// Count returns the item's support count (the popcount of its bitmap).
func (ix *Index) Count(id int32) int { return ix.count[id] }

// Words returns the dense bitmap length in 64-bit words, the buffer
// size dense intersection scratch space needs.
func (ix *Index) Words() int { return ix.words }

// PrepareScratch shapes b (typically pooled, possibly previously used
// against a different index) into an intersection target for this
// index's layout and universe.
func (ix *Index) PrepareScratch(b *Bitmap) {
	if ix.mode == ModeDense {
		b.ensureDense(ix.words)
		b.n = len(ix.txns)
		return
	}
	b.reset(len(ix.txns))
}

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
// without materializing it in dense mode (and for chunked pairs), or by
// folding through pooled scratch for longer chunked candidates. An empty
// id list counts every transaction (the empty set's support convention).
func (ix *Index) SupportCount(ids []int32) int {
	switch len(ids) {
	case 0:
		return ix.NumTransactions()
	case 1:
		return ix.count[ids[0]]
	}
	if ix.mode == ModeDense {
		n := 0
		first, rest := ix.bms[ids[0]].dense, ids[1:]
		for w := 0; w < ix.words; w++ {
			x := first[w]
			for _, id := range rest {
				x &= ix.bms[id].dense[w]
				if x == 0 {
					break
				}
			}
			n += bits.OnesCount64(x)
		}
		return n
	}
	if len(ids) == 2 {
		return AndCardinality(&ix.bms[ids[0]], &ix.bms[ids[1]])
	}
	sc := andScratchPool.Get().(*[2]Bitmap)
	defer andScratchPool.Put(sc)
	cur, next := &sc[0], &sc[1]
	ix.PrepareScratch(cur)
	ix.PrepareScratch(next)
	cnt := AndBitmaps(cur, &ix.bms[ids[0]], &ix.bms[ids[1]])
	for _, id := range ids[2:] {
		if cnt == 0 {
			return 0
		}
		cnt = AndBitmaps(next, cur, &ix.bms[id])
		cur, next = next, cur
	}
	return cnt
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
// three slices must have equal length; dst may alias a or b. This is the
// dense-layout intersection kernel; AndBitmaps is the layout-agnostic
// form.
func AndInto(dst, a, b []uint64) int {
	n := 0
	for i := range dst {
		v := a[i] & b[i]
		dst[i] = v
		n += bits.OnesCount64(v)
	}
	return n
}
