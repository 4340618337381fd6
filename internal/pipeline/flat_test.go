package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
	"cuisines/internal/recipedb"
)

// roundTrip encodes v with c and decodes the result.
func roundTrip(t *testing.T, c flatCodec, v any) any {
	t.Helper()
	data, err := c.AppendEncode(nil, v)
	if err != nil {
		t.Fatalf("%s encode: %v", c.kind, err)
	}
	got, err := c.DecodeBytes(data)
	if err != nil {
		t.Fatalf("%s decode: %v", c.kind, err)
	}
	return got
}

// TestFlatRoundTripIdentity locks the flat codecs to the gob semantics
// they replaced: a flat round-trip must reproduce the artifact exactly
// — every pattern, count and bit-exact float — and agree with what a
// gob round-trip of the same value produces.
func TestFlatRoundTripIdentity(t *testing.T) {
	mined, feats, pd := codecFixtures(t)

	got := roundTrip(t, mineCodec, mined).([]core.RegionPatterns)
	if !reflect.DeepEqual(got, mined) {
		t.Error("mine: flat round-trip differs from original")
	}
	gobGot, err := gobBench[[]core.RegionPatterns]{}.decodeFrom(mustGob(t, mined))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, gobGot) {
		t.Error("mine: flat round-trip differs from gob round-trip")
	}

	gotF := roundTrip(t, matricesCodec, feats).(*PatternFeatures)
	if gotF.Table1.String() != feats.Table1.String() {
		t.Error("matrices: Table1 differs after flat round-trip")
	}
	if !reflect.DeepEqual(gotF.Matrix.Regions, feats.Matrix.Regions) ||
		!reflect.DeepEqual(gotF.Matrix.Vocabulary, feats.Matrix.Vocabulary) {
		t.Error("matrices: labels differ after flat round-trip")
	}
	if !reflect.DeepEqual(gotF.Matrix.X, feats.Matrix.X) {
		t.Error("matrices: feature matrix differs after flat round-trip")
	}

	gotD := roundTrip(t, pdistCodec, pd).(*distance.Condensed)
	if !reflect.DeepEqual(gotD, pd) {
		t.Error("pdist: flat round-trip differs from original")
	}
}

// TestCorpusCodecRoundTrip: a corpus round trip reproduces every
// recipe in stored order and rebuilds the region index, both for a
// generated corpus and for a hand-built one with empty lists.
func TestCorpusCodecRoundTrip(t *testing.T) {
	small, err := recipedb.New([]recipedb.Recipe{
		{ID: "r1", Name: "Stew", Region: "French", Ingredients: []string{"beef", "wine"}, Processes: []string{"simmer"}, Utensils: []string{"pot"}},
		{ID: "r2", Name: "Fry", Region: "Chinese", Ingredients: []string{"soy sauce"}, Processes: []string{"heat"}},
		{ID: "r3", Name: "Salad", Region: "French", Ingredients: []string{"lettuce", "wine"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*recipedb.DB{small, codecCorpus(t)} {
		got := roundTrip(t, corpusCodec, db).(*recipedb.DB)
		if !reflect.DeepEqual(got.Recipes(), db.Recipes()) {
			t.Error("corpus: recipes differ after flat round-trip")
		}
		if !reflect.DeepEqual(got.Regions(), db.Regions()) {
			t.Errorf("corpus: regions %v after round trip, want %v", got.Regions(), db.Regions())
		}
		for _, region := range db.Regions() {
			if got.RegionSize(region) != db.RegionSize(region) {
				t.Errorf("corpus: region index not rebuilt: %s has %d recipes, want %d", region, got.RegionSize(region), db.RegionSize(region))
			}
		}
	}
	if got := roundTrip(t, corpusCodec, small).(*recipedb.DB); got.RegionSize("French") != 2 {
		t.Errorf("region index not rebuilt: French has %d recipes, want 2", got.RegionSize("French"))
	}
}

// TestCorpusCodecRejectsInvalidRecipes: decode rebuilds the DB through
// recipedb.New, so a body holding a recipe that fails validation or a
// duplicate ID is an error, never a structurally broken DB.
func TestCorpusCodecRejectsInvalidRecipes(t *testing.T) {
	for name, recipes := range map[string][]recipedb.Recipe{
		"empty region": {{ID: "x", Ingredients: []string{"a"}}},
		"duplicate id": {
			{ID: "x", Region: "French", Ingredients: []string{"a"}},
			{ID: "x", Region: "Chinese", Ingredients: []string{"b"}},
		},
	} {
		if _, err := decodeCorpus(appendRecipes(nil, recipes)); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestCorpusCodecDeterministic: a corpus has exactly one encoding, so
// encoding it twice — or re-encoding a decoded copy, as a cluster node
// does when it serves a memory-tier value to a peer — gives identical
// bytes.
func TestCorpusCodecDeterministic(t *testing.T) {
	db := codecCorpus(t)
	a, err := corpusCodec.AppendEncode(nil, db)
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpusCodec.AppendEncode(nil, db)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of one corpus differ")
	}
	c, err := corpusCodec.AppendEncode(nil, roundTrip(t, corpusCodec, db))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("re-encoding a decoded corpus changed its bytes")
	}
}

func mustGob(t *testing.T, v any) []byte {
	t.Helper()
	var buf strings.Builder
	if err := (gobCodec[[]core.RegionPatterns]{kind: "bench"}).Encode(&buf, v.([]core.RegionPatterns)); err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String())
}

// TestFlatDecodeRejectsDamage feeds the decoder every damage class the
// disk tier can hand it — truncations at each boundary, a flipped body
// byte, bad magic, trailing garbage — and requires an error each time
// (the store maps codec errors to cache misses; a malformed Set or a
// silent wrong answer would poison everything downstream).
func TestFlatDecodeRejectsDamage(t *testing.T) {
	mined, feats, pd := codecFixtures(t)
	for _, tc := range []struct {
		name  string
		codec flatCodec
		v     any
	}{
		{"corpus", corpusCodec, codecCorpus(t)},
		{"mine", mineCodec, mined},
		{"matrices", matricesCodec, feats},
		{"pdist", pdistCodec, pd},
	} {
		data, err := tc.codec.AppendEncode(nil, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		// Truncation at every prefix length would be slow for MB
		// payloads; probe the structural boundaries and a spread.
		cuts := []int{0, 3, 4, 7, 8, 9, len(data) / 4, len(data) / 2, len(data) - 1}
		for _, n := range cuts {
			if n >= len(data) {
				continue
			}
			if _, err := tc.codec.DecodeBytes(data[:n]); err == nil {
				t.Errorf("%s: truncation to %d bytes decoded without error", tc.name, n)
			}
		}
		for _, flip := range []int{0, 5, 8 + (len(data)-8)/2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[flip] ^= 0x40
			if _, err := tc.codec.DecodeBytes(bad); err == nil {
				t.Errorf("%s: flipped byte %d decoded without error", tc.name, flip)
			}
		}
		if _, err := tc.codec.DecodeBytes(append(append([]byte(nil), data...), 0xEE)); err == nil {
			t.Errorf("%s: trailing garbage decoded without error", tc.name)
		}
	}
}

// TestFlatCorruptDiskArtifactRecomputes is the store-level half of the
// damage story: corrupt the artifact file on disk, restart the store,
// and the stage must silently recompute — never fail, never serve the
// corrupted value.
func TestFlatCorruptDiskArtifactRecomputes(t *testing.T) {
	mined, _, _ := codecFixtures(t)
	dir := t.TempDir()
	key := artifact.Key("mine", "flat-corrupt-test")

	s := artifact.NewStore(artifact.Options{Dir: dir})
	computes := 0
	compute := func() (any, error) { computes++; return mined, nil }
	if _, err := s.GetOrCompute(context.Background(), key, mineCodec, compute); err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("cold run computed %d times", computes)
	}

	files, err := filepath.Glob(filepath.Join(dir, "mine-*.art"))
	if err != nil || len(files) != 1 {
		t.Fatalf("artifact files on disk: %v (err %v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the payload body, past the store's header.
	data[len(data)-10] ^= 0x01
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := artifact.NewStore(artifact.Options{Dir: dir})
	v, err := s2.GetOrCompute(context.Background(), key, mineCodec, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 2 {
		t.Errorf("corrupted warm-disk run computed %d times, want 2 (recompute)", computes)
	}
	if !reflect.DeepEqual(v, mined) {
		t.Error("recomputed artifact differs from original")
	}
	if st := s2.Stats()["mine"]; st.DiskHits != 0 {
		t.Errorf("corrupted artifact counted as disk hit: %+v", st)
	}
}

// TestFlatVersionBumpWarmRestart locks the upgrade path this PR itself
// takes: a store directory holding only old-version artifacts (the gob
// era) must be treated as cold by the bumped flat codecs — recompute
// once, write the new file, then serve warm from it.
func TestFlatVersionBumpWarmRestart(t *testing.T) {
	mined, _, _ := codecFixtures(t)
	dir := t.TempDir()
	key := artifact.Key("mine", "flat-version-test")

	// The "old binary": same kind, previous version, gob encoding.
	old := gobCodec[[]core.RegionPatterns]{kind: "mine", version: mineCodec.version - 1}
	s := artifact.NewStore(artifact.Options{Dir: dir})
	if _, err := s.GetOrCompute(context.Background(), key, old, func() (any, error) { return mined, nil }); err != nil {
		t.Fatal(err)
	}

	// The "new binary" restarts over the same directory.
	computes := 0
	s2 := artifact.NewStore(artifact.Options{Dir: dir})
	v, err := s2.GetOrCompute(context.Background(), key, mineCodec, func() (any, error) { computes++; return mined, nil })
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("version-bumped warm restart computed %d times, want 1", computes)
	}
	if !reflect.DeepEqual(v, mined) {
		t.Error("recomputed artifact differs from original")
	}

	// Second restart: the new-version file written above must now hit.
	s3 := artifact.NewStore(artifact.Options{Dir: dir})
	v, err = s3.GetOrCompute(context.Background(), key, mineCodec, func() (any, error) { computes++; return mined, nil })
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Errorf("second warm restart recomputed (computes=%d); flat file not served", computes)
	}
	if !reflect.DeepEqual(v, mined) {
		t.Error("flat warm-disk artifact differs from original")
	}
	if st := s3.Stats()["mine"]; st.DiskHits != 1 {
		t.Errorf("flat warm-disk load not counted as disk hit: %+v", st)
	}
}

// TestCorpusArtifactGolden pins the corpus artifact body a cold run
// writes: the generated corpus and its flat encoding together. Disk and
// peer caches key the artifact by (seed, scale) and codec version, so
// new bytes under the same version would be served beside the old ones.
func TestCorpusArtifactGolden(t *testing.T) {
	const wantVersion = 2
	const want = "d24f3fe567d4f16ba5bad779a0a22a1754739d5715eaed6f996ac27684ea3254"
	if corpusCodec.version != wantVersion {
		t.Fatalf("corpus codec version %d, want %d", corpusCodec.version, wantVersion)
	}
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	body, err := appendCorpus(nil, db)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("corpus artifact body digest %s, want %s", got, want)
	}
}

// TestMineArtifactGolden pins the mine artifact body a cold run writes
// at the paper's support and at the lowest support a query may ask for
// (server.MinSupport). The digests hold any change to the bitmap index,
// the miners or the mine codec to byte-identical output. They were
// taken from the two-layout index at scale 0.2, where the largest
// regions pass 1024 transactions and were indexed chunked, so they also
// pin that dropping that layout left the bytes unchanged.
func TestMineArtifactGolden(t *testing.T) {
	const wantVersion = 3
	want := map[float64]string{
		0.2: "2f31ec059da52ad0baabd19ce27452e094556ddb1316b4bb64d3f765913118fd",
		0.1: "66af1962bfc3c7527eccbc55a4d515b12c87b591b42eac28a5c922533b6f804d",
	}
	if mineCodec.version != wantVersion {
		t.Fatalf("mine codec version %d, want %d", mineCodec.version, wantVersion)
	}
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cols := db.Columns()
	for _, support := range []float64{0.2, 0.1} {
		mined, err := core.MineColumns(cols, support, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := appendMine(nil, mined)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != want[support] {
			t.Errorf("support %g: mine artifact body digest %s, want %s", support, got, want[support])
		}
	}
}
