package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"cuisines/internal/recipedb"
)

// corpusDigest hashes every recipe field in stored order: ID, name,
// region and the three lists, each string length-prefixed and each list
// preceded by a marker that tells a nil list from an empty one.
func corpusDigest(db *recipedb.DB) string {
	h := sha256.New()
	for _, r := range db.Recipes() {
		writeString(h, r.ID)
		writeString(h, r.Name)
		writeString(h, r.Region)
		for _, list := range [][]string{r.Ingredients, r.Processes, r.Utensils} {
			if list == nil {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1})
			writeLen(h, len(list))
			for _, s := range list {
				writeString(h, s)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeLen(h hash.Hash, n int) {
	h.Write(binary.LittleEndian.AppendUint32(nil, uint32(n)))
}

func writeString(h hash.Hash, s string) {
	writeLen(h, len(s))
	h.Write([]byte(s))
}

// TestGenerateGolden pins the generated corpus byte for byte. Warm disk
// and peer caches are keyed by (seed, scale), so a generator change that
// moves one draw would keep serving the old corpus beside the new one;
// only this digest, not a self-comparison, notices. The digests were
// taken from the generator as it stood before its allocation-light
// rewrite and must never change without a corpus codec version bump.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"default seed, scale 0.25", Config{Seed: DefaultSeed, Scale: 0.25}, "836fa6b54001e2027a9f9f5a4141bc60b375eb63fa02886302579f4929656f18"},
		{"seed+7, scale 0.1, sequential", Config{Seed: DefaultSeed + 7, Scale: 0.1, Workers: 1}, "a9f1557ea63a942f6dc6e901983bc5f5f621f454a9a927a3cd2d3b3355515d8f"},
		{"two regions", Config{Seed: 7, Scale: 0.02, Regions: []string{"Japanese", "Mexican"}}, "17e4378c1722457e4e0cccf24197517305f1e59e401d492d38317fa958746fea"},
		{"30-recipe floor", Config{Seed: 3, Scale: 0.0001}, "515506650c6325cd42d579f6840ff7ce268a998bba62640407b39fd16c465bfa"},
	} {
		db, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := corpusDigest(db); got != tc.want {
			t.Errorf("%s: corpus digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestGenerateAllocsPerRecipe bounds the generator's allocations: a
// recipe costs one string (its ID and name) plus its share of the list
// arena, so a return to per-item maps, fmt or per-recipe slice growth
// fails here rather than only in the benchmark.
func TestGenerateAllocsPerRecipe(t *testing.T) {
	cfg := Config{Seed: DefaultSeed, Scale: 0.05, Regions: []string{"Italian"}}
	var recipes int
	allocs := testing.AllocsPerRun(3, func() {
		db, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recipes = db.Len()
	})
	perRecipe := allocs / float64(recipes)
	t.Logf("%.0f allocations for %d recipes (%.2f per recipe)", allocs, recipes, perRecipe)
	if perRecipe > 2 {
		t.Errorf("Generate made %.0f allocations for %d recipes (%.2f per recipe), want at most 2 per recipe", allocs, recipes, perRecipe)
	}
}

func TestAppendRecipeName(t *testing.T) {
	for _, tc := range []struct {
		lead string
		i    int
		want string
	}{
		{"soy sauce", 4, "Soy sauce bowl (French #4)"},
		{"house", 0, "House stew (French #0)"},
		// A multi-byte first rune is upper-cased whole, not byte by byte.
		{"éclair", 13, "Éclair bake (French #13)"},
		{"", 1, " roast (French #1)"},
	} {
		if got := string(appendRecipeName(nil, "French", tc.lead, tc.i)); got != tc.want {
			t.Errorf("appendRecipeName(%q, %d) = %q, want %q", tc.lead, tc.i, got, tc.want)
		}
	}
}

func TestAppendRecipeID(t *testing.T) {
	for i, want := range map[int]string{0: "thai-000000", 42: "thai-000042", 123456: "thai-123456", 1234567: "thai-1234567"} {
		if got := string(appendRecipeID(nil, "thai", i)); got != want {
			t.Errorf("appendRecipeID(%d) = %q, want %q", i, got, want)
		}
	}
}
