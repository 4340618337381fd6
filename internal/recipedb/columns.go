package recipedb

import (
	"cmp"
	"slices"
	"strings"

	"cuisines/internal/itemset"
)

// Columns is the canonical item-id view of a DB: one table of the
// distinct canonical items of every recipe, sorted by Item.Less, and per
// recipe the ascending, de-duplicated ids of its item set across all
// three kinds (the paper concatenates them before mining, Sec. V.A).
// Because the table is canonically sorted, an id is an item's canonical
// rank: comparing ids compares items, and an ascending id list is a
// canonical set.
//
// The view is derived state, built per run by DB.Columns and never
// retained by the DB: the recipes keep their raw name lists, which the
// codecs and content keys depend on. It is immutable and safe for
// concurrent readers.
type Columns struct {
	db    *DB
	items []itemset.Item // id -> item, strictly ascending by Item.Less
	ids   []int32        // every recipe's ids, back to back
	ends  []int          // recipe i's ids are ids[ends[i-1]:ends[i]]
}

// Columns builds the canonical item-id view of the database. Each
// distinct raw (name, kind) is canonicalized once, not once per list
// entry, and the table is sorted once; per recipe the work is a lookup
// per entry and a sort of a few int32s.
func (db *DB) Columns() *Columns {
	return db.columns(len(db.recipes), func(i int) *Recipe { return &db.recipes[i] })
}

// columns builds the view over n recipes, the i-th being recipe(i); the
// view's Recipe(i) then indexes that sequence.
func (db *DB) columns(n int, recipe func(i int) *Recipe) *Columns {
	// Pass 1: intern every entry. raw[k] maps a raw name of kind k to a
	// provisional id; raw spellings that canonicalize alike share one.
	var raw [3]map[string]int32
	for k := range raw {
		raw[k] = make(map[string]int32)
	}
	provOf := make(map[itemset.Item]int32)
	var prov []itemset.Item
	total := 0
	for i := 0; i < n; i++ {
		for _, names := range recipe(i).lists() {
			total += len(names)
		}
	}
	c := &Columns{db: db, ids: make([]int32, 0, total), ends: make([]int, n)}
	for i := 0; i < n; i++ {
		for k, names := range recipe(i).lists() {
			for _, n := range names {
				id, ok := raw[k][n]
				if !ok {
					it := itemset.NewItem(n, itemset.Kind(k))
					if id, ok = provOf[it]; !ok {
						id = int32(len(prov))
						provOf[it] = id
						prov = append(prov, it)
					}
					raw[k][n] = id
				}
				c.ids = append(c.ids, id)
			}
		}
		c.ends[i] = len(c.ids)
	}

	// Rank the distinct items canonically; the rank is the final id.
	order := make([]int32, len(prov))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if d := strings.Compare(prov[a].Name, prov[b].Name); d != 0 {
			return d
		}
		return cmp.Compare(prov[a].Kind, prov[b].Kind)
	})
	rank := make([]int32, len(prov))
	c.items = make([]itemset.Item, len(prov))
	for r, p := range order {
		rank[p] = int32(r)
		c.items[r] = prov[p]
	}

	// Pass 2: rewrite each recipe's provisional ids as ranks, then sort
	// and de-duplicate them, compacting the arena in place.
	start, w := 0, 0
	for i, end := range c.ends {
		set := c.ids[start:end]
		for j, p := range set {
			set[j] = rank[p]
		}
		slices.Sort(set)
		w += copy(c.ids[w:], slices.Compact(set))
		start, c.ends[i] = end, w
	}
	c.ids = c.ids[:w]
	return c
}

// lists returns the recipe's raw name lists indexed by itemset.Kind.
func (r *Recipe) lists() [3][]string {
	return [3][]string{itemset.Ingredient: r.Ingredients, itemset.Process: r.Processes, itemset.Utensil: r.Utensils}
}

// DB returns the database the view was built from.
func (c *Columns) DB() *DB { return c.db }

// Len returns the number of recipes.
func (c *Columns) Len() int { return len(c.ends) }

// Items returns the item table: id -> item, strictly ascending by
// Item.Less. The slice must not be modified.
func (c *Columns) Items() []itemset.Item { return c.items }

// Recipe returns the ascending, de-duplicated item ids of recipe i (in
// DB order). The slice is shared view state and must not be modified.
func (c *Columns) Recipe(i int) []int32 {
	start := 0
	if i > 0 {
		start = c.ends[i-1]
	}
	return c.ids[start:c.ends[i]:c.ends[i]]
}
