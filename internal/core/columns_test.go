package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cuisines/internal/authenticity"
	"cuisines/internal/itemset"
	"cuisines/internal/matrix"
	"cuisines/internal/miner"
	"cuisines/internal/recipedb"
)

// The column view replaced per-recipe canonicalization (NewItem and
// NewSet on every recipe) in mining and authenticity. These tests pin
// that nothing downstream can tell: on random databases with messy raw
// names, the view's invariants hold, authenticity is bitwise equal to
// the map-based implementation it replaced, and each region's index
// and mined patterns equal those built from per-recipe string sets.

// messyName respells a name the way ingested data does: random case,
// runs of mixed whitespace between words, padding at either end.
func messyName(r *rand.Rand, name string) string {
	ws := []string{" ", "  ", "\t", " \n "}
	var b strings.Builder
	if r.Intn(4) == 0 {
		b.WriteString(ws[r.Intn(len(ws))])
	}
	for i, word := range strings.Fields(name) {
		if i > 0 {
			b.WriteString(ws[r.Intn(len(ws))])
		}
		for _, c := range word {
			if r.Intn(3) == 0 {
				c = []rune(strings.ToUpper(string(c)))[0]
			}
			b.WriteRune(c)
		}
	}
	if r.Intn(4) == 0 {
		b.WriteString(ws[r.Intn(len(ws))])
	}
	return b.String()
}

// randomMessyDB builds n recipes over a few regions. The vocabulary is
// shared across kinds (so one name is both an ingredient and a process),
// lists repeat names under different spellings, a tenth of the recipes
// have no utensils, and a whitespace-only name canonicalizes to "". A
// long tail of rare names gives large databases the corpus's sparse
// item bitmaps.
func randomMessyDB(t *testing.T, r *rand.Rand, n int) *recipedb.DB {
	t.Helper()
	vocab := []string{"soy sauce", "garlic", "olive oil", "salt", "heat", "bake", "pan", "knife", "rice", "fish sauce", "  "}
	for i := 0; i < 1500; i++ {
		vocab = append(vocab, fmt.Sprintf("tail item %d", i))
	}
	pick := func() string {
		if r.Intn(2) == 0 {
			return messyName(r, vocab[r.Intn(len(vocab))])
		}
		return messyName(r, vocab[r.Intn(11)])
	}
	list := func(max int) []string {
		out := make([]string, r.Intn(max+1))
		for i := range out {
			out[i] = pick()
		}
		if len(out) > 1 && r.Intn(2) == 0 {
			out = append(out, out[0]) // verbatim duplicate
		}
		return out
	}
	regions := []string{"Alpha", "Beta", "Gamma", "Delta"}[:1+r.Intn(4)]
	recipes := make([]recipedb.Recipe, n)
	for i := range recipes {
		recipes[i] = recipedb.Recipe{
			ID:          fmt.Sprintf("r%d", i),
			Region:      regions[r.Intn(len(regions))],
			Ingredients: append([]string{pick()}, list(6)...),
			Processes:   list(4),
			Utensils:    list(3),
		}
		if r.Intn(10) == 0 {
			recipes[i].Utensils = nil
		}
	}
	db, err := recipedb.New(recipes)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// stringSet is the replaced per-recipe path: every raw name
// canonicalized and the set sorted, recipe by recipe.
func stringSet(rec *recipedb.Recipe) itemset.Set {
	var items []itemset.Item
	for _, n := range rec.Ingredients {
		items = append(items, itemset.NewItem(n, itemset.Ingredient))
	}
	for _, n := range rec.Processes {
		items = append(items, itemset.NewItem(n, itemset.Process))
	}
	for _, n := range rec.Utensils {
		items = append(items, itemset.NewItem(n, itemset.Utensil))
	}
	return itemset.NewSet(items...)
}

// stringDataset is the replaced RegionDataset.
func stringDataset(db *recipedb.DB, region string) *itemset.Dataset {
	var txns []itemset.Transaction
	for _, j := range db.RegionIndexes(region) {
		txns = append(txns, itemset.Transaction{ID: db.Recipe(j).ID, Items: stringSet(db.Recipe(j))})
	}
	return itemset.NewDataset(txns)
}

// mapAuthenticity is the replaced authenticity.Build: counts in a
// map[Item][]int over per-recipe string sets, columns sorted by
// Item.Less.
func mapAuthenticity(db *recipedb.DB, opts authenticity.Options) *authenticity.Matrix {
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = []itemset.Kind{itemset.Ingredient}
	}
	wantKind := make(map[itemset.Kind]bool, len(kinds))
	for _, k := range kinds {
		wantKind[k] = true
	}
	regions := db.Regions()
	rowOf := make(map[string]int, len(regions))
	for i, r := range regions {
		rowOf[r] = i
	}
	counts := make(map[itemset.Item][]int)
	for i := 0; i < db.Len(); i++ {
		rec := db.Recipe(i)
		for _, it := range stringSet(rec).Items() {
			if !wantKind[it.Kind] {
				continue
			}
			if counts[it] == nil {
				counts[it] = make([]int, len(regions))
			}
			counts[it][rowOf[rec.Region]]++
		}
	}
	var items []itemset.Item
	for it, c := range counts {
		keep := opts.MinRegionPrevalence <= 0
		for row, n := range c {
			size := db.RegionSize(regions[row])
			if size > 0 && float64(n)/float64(size) >= opts.MinRegionPrevalence {
				keep = true
			}
		}
		if keep {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Less(items[j]) })
	prev := matrix.NewDense(len(regions), len(items))
	for col, it := range items {
		for row := range regions {
			if size := db.RegionSize(regions[row]); size > 0 {
				prev.Set(row, col, float64(counts[it][row])/float64(size))
			}
		}
	}
	rel := prev.Clone()
	rel.CenterColumns()
	return &authenticity.Matrix{Regions: regions, Items: items, Prevalence: prev, Relative: rel}
}

func checkColumnInvariants(t *testing.T, db *recipedb.DB, cols *recipedb.Columns) {
	t.Helper()
	table := cols.Items()
	for i := 1; i < len(table); i++ {
		if !table[i-1].Less(table[i]) {
			t.Fatalf("table not strictly ascending at %d: %v, %v", i, table[i-1], table[i])
		}
	}
	if cols.Len() != db.Len() {
		t.Fatalf("view has %d recipes, db %d", cols.Len(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		ids := cols.Recipe(i)
		items := make([]itemset.Item, len(ids))
		for k, id := range ids {
			if id < 0 || int(id) >= len(table) || (k > 0 && id <= ids[k-1]) {
				t.Fatalf("recipe %d ids %v: not ascending, unique and in [0, %d)", i, ids, len(table))
			}
			items[k] = table[id]
		}
		if want := stringSet(db.Recipe(i)).Items(); !reflect.DeepEqual(items, want) {
			t.Fatalf("recipe %d: view items %v, string path %v", i, items, want)
		}
	}
}

func denseBitsEqual(a, b *matrix.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// indexState is everything an Index exposes about its construction.
type indexState struct {
	Items  []itemset.Item
	Counts []int
	Bits   [][]int
	Txns   [][]int32
}

func stateOf(ix *itemset.Index) indexState {
	s := indexState{Txns: ix.Txns()}
	for id := int32(0); int(id) < ix.NumItems(); id++ {
		s.Items = append(s.Items, ix.Item(id))
		s.Counts = append(s.Counts, ix.Count(id))
		var tids []int
		for w, word := range ix.Bits(id) {
			for ; word != 0; word &= word - 1 {
				tids = append(tids, w<<6+bits.TrailingZeros64(word))
			}
		}
		s.Bits = append(s.Bits, tids)
	}
	return s
}

// referenceState computes an index's content from a dataset directly:
// items by a map and a sort, ids by binary search, bits by scanning.
func referenceState(d *itemset.Dataset) indexState {
	var s indexState
	for it := range d.ItemCounts() {
		s.Items = append(s.Items, it)
	}
	sort.Slice(s.Items, func(i, j int) bool { return s.Items[i].Less(s.Items[j]) })
	s.Counts = make([]int, len(s.Items))
	s.Bits = make([][]int, len(s.Items))
	s.Txns = make([][]int32, d.Len())
	for tid, txn := range d.Transactions() {
		for _, it := range txn.Items.Items() {
			id := sort.Search(len(s.Items), func(i int) bool { return !s.Items[i].Less(it) })
			s.Txns[tid] = append(s.Txns[tid], int32(id))
			s.Counts[id]++
			s.Bits[id] = append(s.Bits[id], tid)
		}
	}
	return s
}

func TestColumnsMatchStringPath(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	sizes := []int{1, 2, 5, 20, 60, 150, 4500} // the last spans many bitmap words
	for iter := 0; iter < 40; iter++ {
		n := sizes[iter%len(sizes)]
		if n > 1000 && iter >= len(sizes) {
			n = 200 // one large database is enough
		}
		db := randomMessyDB(t, r, n)
		cols := db.Columns()
		checkColumnInvariants(t, db, cols)

		for _, opts := range []authenticity.Options{
			{},
			{MinRegionPrevalence: AuthMinRegionPrevalence},
			{Kinds: itemset.Kinds(), MinRegionPrevalence: 0.2},
			{Kinds: []itemset.Kind{itemset.Utensil, itemset.Process}},
		} {
			got, err := authenticity.BuildColumns(cols, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := mapAuthenticity(db, opts)
			if !reflect.DeepEqual(got.Regions, want.Regions) || !reflect.DeepEqual(got.Items, want.Items) ||
				!denseBitsEqual(got.Prevalence, want.Prevalence) || !denseBitsEqual(got.Relative, want.Relative) {
				t.Fatalf("iter %d %+v: authenticity differs from the map-based build", iter, opts)
			}
			if viaDB, err := authenticity.Build(db, opts); err != nil || !reflect.DeepEqual(viaDB, got) {
				t.Fatalf("iter %d: Build(db) differs from BuildColumns (err %v)", iter, err)
			}
		}

		mined, err := MineColumns(cols, 0.2, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, region := range db.Regions() {
			ds := stringDataset(db, region)
			want := referenceState(ds)
			viaDataset := itemset.NewIndex(ds)
			if got := stateOf(viaDataset); !reflect.DeepEqual(got.Items, want.Items) || !reflect.DeepEqual(got.Counts, want.Counts) ||
				!reflect.DeepEqual(got.Bits, want.Bits) || !reflect.DeepEqual(got.Txns, want.Txns) {
				t.Fatalf("iter %d %s: NewIndex(dataset) differs from the reference", iter, region)
			}
			if got := stateOf(regionIndex(cols, db.RegionIndexes(region))); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d %s: column index differs from the string-path index", iter, region)
			}
			if got := stateOf(itemset.NewIndex(db.RegionDataset(region))); !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d %s: RegionDataset index differs from the string-path index", iter, region)
			}
			wantPatterns := miner.Default.Mine(viaDataset, 0.2)
			if mined[i].Region != region || mined[i].Recipes != ds.Len() || !reflect.DeepEqual(mined[i].Patterns, wantPatterns) {
				t.Fatalf("iter %d %s: mined patterns differ from the string path", iter, region)
			}
		}
	}
}
