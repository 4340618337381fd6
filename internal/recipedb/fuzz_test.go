package recipedb

import (
	"reflect"
	"strings"
	"testing"

	"cuisines/internal/itemset"
)

// The ingestion fuzz targets lock three properties over arbitrary input:
// the readers never panic, every rejection names where the problem is —
// a specific line for row-level failures, or the header — and every
// accepted database has a well-formed column view (checkColumns). CI runs
// them for a short fixed budget on every push (see ci.yml); longer
// local runs: go test -fuzz=FuzzReadCSV ./internal/recipedb.

// locatedError reports whether an ingestion error points the caller at
// the offending input: a line number, or the header phase.
func locatedError(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "line ") || strings.Contains(msg, "header")
}

// TestReadCSVLineNumbersSpanQuotedNewlines: quoted fields may contain
// newlines, so error positions must come from the reader's physical
// line tracking, not a record counter.
func TestReadCSVLineNumbersSpanQuotedNewlines(t *testing.T) {
	in := "id,name,region,ingredients,processes,utensils\n" +
		"r1,\"Two\nLine\",French,beef,,\n" + // record 1 spans physical lines 2-3
		"r1,Dup,French,beef,,\n" // physical line 4: duplicate ID
	_, err := ReadCSV(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want error naming line 4, got: %v", err)
	}
}

// checkColumns builds db's column view and checks its invariants: the
// table is strictly ascending by Item.Less, and each recipe's ids are
// ascending, unique, in range, and name exactly the canonical set of
// its raw lists (each name through NewItem, then NewSet).
func checkColumns(t *testing.T, db *DB) {
	t.Helper()
	c := db.Columns()
	table := c.Items()
	for i := 1; i < len(table); i++ {
		if !table[i-1].Less(table[i]) {
			t.Fatalf("column table not strictly ascending at %d: %q, %q", i, table[i-1], table[i])
		}
	}
	if c.Len() != db.Len() {
		t.Fatalf("column view has %d recipes, db %d", c.Len(), db.Len())
	}
	for i := 0; i < db.Len(); i++ {
		ids := c.Recipe(i)
		got := make([]itemset.Item, len(ids))
		for k, id := range ids {
			if id < 0 || int(id) >= len(table) || (k > 0 && id <= ids[k-1]) {
				t.Fatalf("recipe %d ids %v: not ascending, unique and in [0, %d)", i, ids, len(table))
			}
			got[k] = table[id]
		}
		r := db.Recipe(i)
		var raw []itemset.Item
		for k, names := range r.lists() {
			for _, n := range names {
				raw = append(raw, itemset.NewItem(n, itemset.Kind(k)))
			}
		}
		if want := itemset.NewSet(raw...).Items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("recipe %d: column items %q, want %q", i, got, want)
		}
	}
}

// Messy real-world shapes, after the latin-1 zomato export of
// SNIPPETS.md snippet 2: latin-1 bytes that are not UTF-8, multi-valued
// cells exploded by commas (quoted: one item with commas; unquoted: extra
// fields), stray case and whitespace, and one name under two kinds.
var messyCSVSeeds = []string{
	"id,name,region,ingredients,processes,utensils\nr1,Cr\xe8me br\xfbl\xe9e,French,cr\xe8me|sucre|Cr\xe8me ,caram\xe9liser,po\xeale\n",
	"id,name,region,ingredients,processes,utensils\nr1,Thali,Indian Subcontinent,\"rice, dal,  Ghee \",\"boil,fry\",\n",
	"id,name,region,ingredients,processes,utensils\nr1,Thali,Indian Subcontinent,rice, dal, ghee,boil,\n",
	"id,name,region,ingredients,processes,utensils\nr1,Stew,French,  Beef|beef\t|BEEF  wine| |,simmer|Beef,\nr2,Soup,french,salt,,pot|POT\n",
}

func FuzzReadCSV(f *testing.F) {
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,French,beef|wine,simmer,pot\n")
	f.Add("id,name,region,ingredients,processes,utensils\nr1,,French,beef,,\nr1,,French,beef,,\n") // duplicate ID
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,,beef,,\n")                      // empty region
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,French,,,\n")                    // no ingredients
	f.Add("id,name,region,ingredients,processes,utensils\n\"r1,Stew\n")                            // unterminated quote
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,French,beef,simmer\n")           // short row
	f.Add("bogus,header\n")
	f.Add("id,name,region,ingredients,processes,utensils\nr1,S,French," + strings.Repeat("x|", 500) + "y,,\n")
	for _, s := range messyCSVSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		db, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			if !locatedError(err) {
				t.Fatalf("error does not locate the problem: %v", err)
			}
			return
		}
		// Accepted input must yield a structurally valid database.
		for i := 0; i < db.Len(); i++ {
			if verr := db.Recipe(i).Validate(); verr != nil {
				t.Fatalf("accepted invalid recipe %d: %v", i, verr)
			}
		}
		checkColumns(t, db)
	})
}

func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"id":"r1","name":"Stew","region":"French","ingredients":["beef","wine"]}` + "\n")
	f.Add(`{"id":"r1","region":"French","ingredients":["beef"]}` + "\n" + `{"id":"r1","region":"French","ingredients":["beef"]}` + "\n")
	f.Add(`{"id":"r1","region":"","ingredients":["beef"]}` + "\n") // empty region
	f.Add(`{"id":"r1","region":"French"}` + "\n")                  // no ingredients
	f.Add("{not json}\n")
	f.Add("\n\n" + `{"id":"r1","region":"French","ingredients":["beef"]}` + "\n\n")
	f.Add(`{"id":"r1","region":"French","ingredients":["` + strings.Repeat("x", 2000) + `"]}` + "\n")
	f.Add(`{"id":"r1","region":"French","ingredients":["Cr\u00e8me ","cr\u00c8me","rice, dal"],"processes":["cr\u00e8me"," \t"]}` + "\n")
	f.Add("{\"id\":\"r1\",\"region\":\"Fran\xe7ais\",\"ingredients\":[\"cr\xe8me\"]}\n") // latin-1 bytes
	f.Fuzz(func(t *testing.T, data string) {
		db, err := ReadJSONL(strings.NewReader(data))
		if err != nil {
			if !locatedError(err) {
				t.Fatalf("error does not locate the problem: %v", err)
			}
			return
		}
		for i := 0; i < db.Len(); i++ {
			if verr := db.Recipe(i).Validate(); verr != nil {
				t.Fatalf("accepted invalid recipe %d: %v", i, verr)
			}
		}
		checkColumns(t, db)
	})
}
