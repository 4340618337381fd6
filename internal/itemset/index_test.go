package itemset

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

func ixTxn(names ...string) Transaction {
	return Transaction{Items: FromNames(Ingredient, names...)}
}

// findID resolves an item to its index id by scanning (the production
// surface needs no reverse lookup, so the tests do it by hand).
func findID(ix *Index, it Item) (int32, bool) {
	for id := int32(0); int(id) < ix.NumItems(); id++ {
		if ix.Item(id) == it {
			return id, true
		}
	}
	return 0, false
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestIndexBasics(t *testing.T) {
	d := NewDataset([]Transaction{
		ixTxn("a", "b"),
		ixTxn("b", "c"),
		ixTxn("a", "b", "c"),
	})
	ix := NewIndex(d)
	if ix.NumTransactions() != 3 {
		t.Fatalf("transactions = %d", ix.NumTransactions())
	}
	if ix.NumItems() != 3 {
		t.Fatalf("items = %d", ix.NumItems())
	}
	// Ids follow canonical item order.
	for id := int32(1); int(id) < ix.NumItems(); id++ {
		if !ix.Item(id - 1).Less(ix.Item(id)) {
			t.Fatalf("ids not in canonical item order at %d", id)
		}
	}
	b := NewItem("b", Ingredient)
	id, ok := findID(ix, b)
	if !ok || ix.Count(id) != 3 {
		t.Fatalf("b: id ok=%v count=%d", ok, ix.Count(id))
	}
	if _, ok := findID(ix, NewItem("zz", Ingredient)); ok {
		t.Fatal("unindexed item resolved")
	}
	if got := ix.Words(); got != 1 {
		t.Fatalf("words = %d", got)
	}
}

func TestIndexSupportCountMatchesDataset(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nTxn := 1 + r.Intn(200) // spans multiple bitmap words
		txns := make([]Transaction, nTxn)
		for i := range txns {
			n := r.Intn(6)
			var items []Item
			for j := 0; j < n; j++ {
				items = append(items, NewItem(string(rune('a'+r.Intn(8))), Kind(r.Intn(3))))
			}
			txns[i] = Transaction{Items: NewSet(items...)}
		}
		d := NewDataset(txns)
		ix := NewIndex(d)
		if ix.NumTransactions() != d.Len() {
			t.Fatalf("trial %d: transactions %d != %d", trial, ix.NumTransactions(), d.Len())
		}
		// Every single item count must equal the dataset's scan.
		for id := int32(0); int(id) < ix.NumItems(); id++ {
			it := ix.Item(id)
			if got, want := ix.Count(id), d.SupportCount(NewSet(it)); got != want {
				t.Fatalf("trial %d: item %v count %d, dataset says %d", trial, it, got, want)
			}
			if got := popcount(ix.Bits(id)); got != ix.Count(id) {
				t.Fatalf("trial %d: cached count %d != popcount %d", trial, ix.Count(id), got)
			}
		}
		// Random candidate itemsets: AND-counting must equal subset scans.
		for probe := 0; probe < 20; probe++ {
			k := 1 + r.Intn(4)
			var ids []int32
			var items []Item
			for j := 0; j < k && ix.NumItems() > 0; j++ {
				id := int32(r.Intn(ix.NumItems()))
				ids = append(ids, id)
				items = append(items, ix.Item(id))
			}
			if got, want := ix.SupportCount(ids), d.SupportCount(NewSet(items...)); got != want {
				t.Fatalf("trial %d: SupportCount(%v) = %d, dataset says %d", trial, items, got, want)
			}
		}
		if got := ix.SupportCount(nil); got != d.Len() {
			t.Fatalf("trial %d: empty-set support %d != %d", trial, got, d.Len())
		}
	}
}

func TestIndexMinCountMatchesDataset(t *testing.T) {
	d := NewDataset([]Transaction{ixTxn("a"), ixTxn("a"), ixTxn("b")})
	ix := NewIndex(d)
	for _, sup := range []float64{0, 0.2, 0.34, 0.5, 1, 2, 5} {
		if got, want := ix.MinCount(sup), d.MinCount(sup); got != want {
			t.Errorf("MinCount(%g) = %d, dataset says %d", sup, got, want)
		}
	}
}

func TestIndexEmptyTransactionsCountTowardSupport(t *testing.T) {
	d := NewDataset([]Transaction{ixTxn("a"), {}, {}, ixTxn("a")})
	ix := NewIndex(d)
	if ix.NumTransactions() != 4 {
		t.Fatalf("transactions = %d", ix.NumTransactions())
	}
	id, ok := findID(ix, NewItem("a", Ingredient))
	if !ok {
		t.Fatal("a not indexed")
	}
	p := ix.Pattern([]int32{id}, ix.Count(id))
	if p.Count != 2 || p.Support != 0.5 {
		t.Fatalf("pattern = %+v", p)
	}
}

// TestAndInto checks the intersection kernel on a hand-made pair,
// including a destination aliased with an operand.
func TestAndInto(t *testing.T) {
	a := []uint64{0b1010, 1 << 63}
	b := []uint64{0b0110, 1 << 63}
	dst := make([]uint64, 2)
	if got := AndInto(dst, a, b); got != 2 {
		t.Fatalf("popcount = %d", got)
	}
	if dst[0] != 0b0010 || dst[1] != 1<<63 {
		t.Fatalf("dst = %b %b", dst[0], dst[1])
	}
	// Aliasing dst with an operand is allowed.
	if got := AndInto(a, a, b); got != 2 || a[0] != 0b0010 {
		t.Fatalf("aliased AndInto = %d, a0=%b", got, a[0])
	}
}

// TestAndBitmapsMatchesBruteForce checks AndInto against a merge of the
// two tid lists: universes from under one word to 200 000 tids, operand
// densities from 0.1% to 90%, and one scratch target recycled across
// every trial the way the eclat DFS recycles its per-depth buffers.
func TestAndBitmapsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(20200620))
	var buf []uint64
	for _, n := range []int{50, 1000, 1 << 16, 1<<16 + 1, 200_000} {
		words := (n + 63) / 64
		if cap(buf) < words {
			buf = make([]uint64, words)
		}
		dst := buf[:words]
		for _, da := range []float64{0.001, 0.02, 0.2, 0.9} {
			for _, db := range []float64{0.001, 0.02, 0.2, 0.9} {
				ta, tb := randomTids(r, n, da), randomTids(r, n, db)
				want := intersectTids(ta, tb)
				if got := AndInto(dst, bitmapOf(ta, n), bitmapOf(tb, n)); got != len(want) {
					t.Fatalf("n=%d da=%g db=%g: AndInto = %d, want %d", n, da, db, got, len(want))
				}
				if got := tidsOf(dst); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d da=%g db=%g: intersection bits diverge", n, da, db)
				}
			}
		}
	}
}

// TestAndBitmapsChainedIntersections mirrors the miner access pattern:
// fold five bitmaps through AndInto, the result of each level being an
// operand of the next, as the eclat DFS folds a prefix.
func TestAndBitmapsChainedIntersections(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const n = 150_000
	want := randomTids(r, n, 0.5)
	cur := bitmapOf(want, n)
	for depth, density := range []float64{0.1, 0.04, 0.3, 0.008} {
		tids := randomTids(r, n, density)
		want = intersectTids(want, tids)
		next := make([]uint64, len(cur))
		if got := AndInto(next, cur, bitmapOf(tids, n)); got != len(want) {
			t.Fatalf("chain depth %d: count %d, want %d", depth+1, got, len(want))
		}
		cur = next
	}
	if got := tidsOf(cur); !reflect.DeepEqual(got, want) {
		t.Fatalf("chained intersection bits diverge: got %d, want %d", len(got), len(want))
	}
}

// TestIndexBitShapes builds an index in which one item occurs at exactly
// the given tids, for runs and strides up to a universe of 2^18
// transactions, and checks its bitmap, count and support against them.
func TestIndexBitShapes(t *testing.T) {
	cases := []struct {
		name string
		tids []int
		n    int
	}{
		{"empty", nil, 100},
		{"single", []int{7}, 100},
		{"stride-3", seq(0, 100, 3), 1 << 16},
		{"run-4096", seq(0, 4096, 1), 1 << 16},
		{"run-4097", seq(0, 4097, 1), 1 << 16},
		{"run-12288", seq(0, 3*4096, 1), 1 << 16},
		{"wide-mixed", append(seq(0, 5000, 1), append(seq(1<<16, 10, 1), seq(3<<16, 6000, 1)...)...), 4 << 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Item 1 is in every transaction, item 0 only at tc.tids.
			txns := make([][]int32, tc.n)
			for tid := range txns {
				txns[tid] = []int32{1}
			}
			for _, tid := range tc.tids {
				txns[tid] = []int32{0, 1}
			}
			ix := NewIndexIDs([]Item{NewItem("a", Ingredient), NewItem("b", Ingredient)}, txns)
			if got := ix.Words(); got != (tc.n+63)/64 || len(ix.Bits(0)) != got {
				t.Fatalf("words = %d, bitmap %d words, want %d", got, len(ix.Bits(0)), (tc.n+63)/64)
			}
			if got := tidsOf(ix.Bits(0)); !reflect.DeepEqual(got, tc.tids) {
				t.Fatalf("bitmap holds %d tids, want %d", len(got), len(tc.tids))
			}
			if ix.Count(0) != len(tc.tids) || ix.Count(1) != tc.n {
				t.Fatalf("counts = %d, %d, want %d, %d", ix.Count(0), ix.Count(1), len(tc.tids), tc.n)
			}
			if got := ix.SupportCount([]int32{0, 1}); got != len(tc.tids) {
				t.Fatalf("SupportCount = %d, want %d", got, len(tc.tids))
			}
		})
	}
}

func seq(from, count, step int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = from + i*step
	}
	return out
}

// randomTids draws an ascending, duplicate-free tid sample of the given
// density from [0, n).
func randomTids(r *rand.Rand, n int, density float64) []int {
	var tids []int
	for tid := 0; tid < n; tid++ {
		if r.Float64() < density {
			tids = append(tids, tid)
		}
	}
	return tids
}

// intersectTids merges two ascending tid lists.
func intersectTids(a, b []int) []int {
	var out []int
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func bitmapOf(tids []int, n int) []uint64 {
	words := make([]uint64, (n+63)/64)
	for _, tid := range tids {
		words[tid>>6] |= 1 << (tid & 63)
	}
	return words
}

func tidsOf(words []uint64) []int {
	var out []int
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6+bits.TrailingZeros64(word))
		}
	}
	return out
}
