package recipedb

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cuisines/internal/itemset"
)

func sampleRecipes() []Recipe {
	return []Recipe{
		{ID: "r1", Name: "Miso Soup", Region: "Japanese",
			Ingredients: []string{"miso", "tofu", "dashi"},
			Processes:   []string{"boil", "add"},
			Utensils:    []string{"pot"}},
		{ID: "r2", Name: "Ramen", Region: "Japanese",
			Ingredients: []string{"noodles", "soy sauce", "egg"},
			Processes:   []string{"boil", "simmer"},
			Utensils:    nil}, // no utensil data — allowed
		{ID: "r3", Name: "Tacos", Region: "Mexican",
			Ingredients: []string{"tortilla", "cilantro", "onion"},
			Processes:   []string{"heat", "add"},
			Utensils:    []string{"skillet"}},
	}
}

func mustDB(t *testing.T, rs []Recipe) *DB {
	t.Helper()
	db, err := New(rs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewIndexesRegions(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	if db.Len() != 3 || db.NumRegions() != 2 {
		t.Fatalf("len=%d regions=%d", db.Len(), db.NumRegions())
	}
	if !reflect.DeepEqual(db.Regions(), []string{"Japanese", "Mexican"}) {
		t.Fatalf("regions = %v", db.Regions())
	}
	if db.RegionSize("Japanese") != 2 || db.RegionSize("Atlantis") != 0 {
		t.Fatal("region sizes wrong")
	}
	rs := db.RegionRecipes("Mexican")
	if len(rs) != 1 || rs[0].ID != "r3" {
		t.Fatalf("region recipes = %v", rs)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	cases := []Recipe{
		{ID: "", Region: "X", Ingredients: []string{"a"}},
		{ID: "x", Region: "", Ingredients: []string{"a"}},
		{ID: "x", Region: "X", Ingredients: nil},
	}
	for i, r := range cases {
		if _, err := New([]Recipe{r}); err == nil {
			t.Errorf("case %d accepted invalid recipe", i)
		}
	}
}

func TestNewRejectsDuplicateIDs(t *testing.T) {
	rs := sampleRecipes()
	rs[1].ID = "r1"
	if _, err := New(rs); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestItemsSpanKinds(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	c := db.Columns()
	var items []itemset.Item
	for _, id := range c.Recipe(0) {
		items = append(items, c.Items()[id])
	}
	s := itemset.NewSet(items...)
	if s.OfKind(itemset.Ingredient).Len() != 3 ||
		s.OfKind(itemset.Process).Len() != 2 ||
		s.OfKind(itemset.Utensil).Len() != 1 {
		t.Fatalf("items = %v", s)
	}
}

func TestRegionDataset(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	d := db.RegionDataset("Japanese")
	if d.Len() != 2 {
		t.Fatalf("dataset len = %d", d.Len())
	}
	boil := itemset.FromNames(itemset.Process, "boil")
	if d.Support(boil) != 1.0 {
		t.Fatalf("support(boil) = %v", d.Support(boil))
	}
	if db.Columns().Len() != 3 {
		t.Fatal("Columns wrong size")
	}
	if db.RegionDataset("Atlantis").Len() != 0 {
		t.Fatal("unknown region dataset not empty")
	}
}

func TestFilterAndSample(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	f := db.Filter(func(r *Recipe) bool { return r.Region == "Japanese" })
	if f.Len() != 2 || f.NumRegions() != 1 {
		t.Fatal("filter wrong")
	}
	s := db.Sample(2)
	if s.RegionSize("Japanese") != 1 || s.RegionSize("Mexican") != 1 {
		t.Fatalf("sample sizes: %v", s.Regions())
	}
	if db.Sample(1) != db {
		t.Fatal("Sample(1) should be identity")
	}
}

func TestComputeStats(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	st := ComputeStats(db)
	if st.Recipes != 3 || st.Regions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.UniqueIngredients != 9 || st.UniqueProcesses != 4 || st.UniqueUtensils != 2 {
		t.Fatalf("unique counts = %+v", st)
	}
	if st.RecipesWithoutUtensils != 1 {
		t.Fatalf("missing utensils = %d", st.RecipesWithoutUtensils)
	}
	if st.MeanIngredients != 3 {
		t.Fatalf("mean ingredients = %v", st.MeanIngredients)
	}
	out := st.String()
	if !strings.Contains(out, "Japanese") || !strings.Contains(out, "recipes: 3") {
		t.Fatalf("report:\n%s", out)
	}
}

func TestStatsCanonicalization(t *testing.T) {
	db := mustDB(t, []Recipe{
		{ID: "a", Region: "X", Ingredients: []string{"Soy Sauce"}},
		{ID: "b", Region: "X", Ingredients: []string{"soy  sauce"}},
	})
	if st := ComputeStats(db); st.UniqueIngredients != 1 {
		t.Fatalf("canonicalization failed: %d unique", st.UniqueIngredients)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	var buf bytes.Buffer
	if err := WriteCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip lost recipes: %d", back.Len())
	}
	for i := 0; i < db.Len(); i++ {
		a, b := db.Recipe(i), back.Recipe(i)
		if a.ID != b.ID || a.Region != b.Region || !reflect.DeepEqual(a.Ingredients, b.Ingredients) ||
			!reflect.DeepEqual(a.Processes, b.Processes) || !reflect.DeepEqual(a.Utensils, b.Utensils) {
			t.Fatalf("recipe %d mismatch:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	db := mustDB(t, sampleRecipes())
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip lost recipes: %d", back.Len())
	}
	if back.Recipe(1).Utensils != nil {
		t.Fatal("empty utensils should stay nil")
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("id,nom,region,i,p,u\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestReadCSVRejectsBadFieldCount(t *testing.T) {
	in := "id,name,region,ingredients,processes,utensils\nr1,Soup,Japanese,miso\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestReadJSONLRejectsMalformed(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("malformed json accepted")
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := `{"id":"a","name":"x","region":"R","ingredients":["i"]}` + "\n\n" +
		`{"id":"b","name":"y","region":"R","ingredients":["j"]}` + "\n"
	db, err := ReadJSONL(strings.NewReader(in))
	if err != nil || db.Len() != 2 {
		t.Fatalf("db=%v err=%v", db, err)
	}
}

func TestCSVListSeparatorHandling(t *testing.T) {
	// Empty segments within lists are dropped.
	in := "id,name,region,ingredients,processes,utensils\n" +
		"r1,Soup,Japanese,miso| |tofu,,\n"
	db, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r := db.Recipe(0)
	if !reflect.DeepEqual(r.Ingredients, []string{"miso", "tofu"}) {
		t.Fatalf("ingredients = %v", r.Ingredients)
	}
	if r.Processes != nil || r.Utensils != nil {
		t.Fatalf("empty lists should be nil: %v %v", r.Processes, r.Utensils)
	}
}
