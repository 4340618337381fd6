package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"testing"

	"cuisines/internal/authenticity"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
)

// Fuzz targets for the artifact body decoders. They call decodeCorpus,
// decodeMine, decodeMatrices, decodeCondensed and the gob decoders of
// the auth, tree, elbow and validate codecs directly, skipping the CFL1
// CRC and the store's sha256 the way a hostile peer or a planted .art
// file would: anyone can compute those checksums, so the decoders must
// return an error — never panic, never allocate past the input's size —
// on any body. A body that does decode must reach a fixed point: its
// re-encoding decodes and re-encodes to the same bytes.
//
//	go test -run='^$' -fuzz='^FuzzDecodeCorpus$' -fuzztime=15s ./internal/pipeline

// fuzzSeedBodies holds real artifact bodies at a small scale (mostly two
// regions, the 30-recipe generator floor each) so mutations stay cheap.
// Gob kinds hold their gob stream.
var fuzzSeedBodies = sync.OnceValues(func() (map[string][]byte, error) {
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.001, Regions: []string{"French", "Japanese"}})
	if err != nil {
		return nil, err
	}
	mined, err := core.MineRegions(db, core.DefaultMinSupport)
	if err != nil {
		return nil, err
	}
	t1, pm, err := core.BuildPatternFeatures(mined, core.DefaultMinSupport)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for kind, v := range map[string]any{
		"corpus":   db,
		"mine":     mined,
		"matrices": &PatternFeatures{Table1: t1, Matrix: pm},
		"pdist":    distance.Pdist(pm.X, distance.Cosine),
	} {
		body, err := Codecs()[kind].(flatCodec).appendFn(nil, v)
		if err != nil {
			return nil, err
		}
		out[kind] = body
	}
	am, err := authenticity.Build(db, authenticity.Options{MinRegionPrevalence: core.AuthMinRegionPrevalence})
	if err != nil {
		return nil, err
	}
	// The tree, elbow and validate bodies come from a whole run at the
	// generator floor over all 26 regions: validation's claims name
	// regions a two-region corpus lacks.
	res, err := New(nil).Run(context.Background(), Params{Scale: 0.0001, Workers: 1})
	if err != nil {
		return nil, err
	}
	for kind, v := range map[string]any{
		"auth":     am,
		"tree":     res.Figures.Cosine,
		"elbow":    res.Figures.Elbow,
		"validate": res.Validation,
	} {
		var body bytes.Buffer
		if err := Codecs()[kind].Encode(&body, v); err != nil {
			return nil, err
		}
		out[kind] = body.Bytes()
	}
	return out, nil
})

func seedBody(tb testing.TB, kind string) []byte {
	tb.Helper()
	bodies, err := fuzzSeedBodies()
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Clone(bodies[kind])
}

// mineInternCountCrasher is the first known crasher: a real mine body
// with one field mutated, the intern table's name count, to 419,430,400.
// Before counts were bounded by the bytes left, readInterned allocated
// a []string of that length (6.7 GB) before noticing the body ended.
func mineInternCountCrasher(tb testing.TB) []byte {
	body := seedBody(tb, "mine")
	binary.LittleEndian.PutUint32(body[20:], 0x19000000) // after u32 regions, u64 patterns, u64 items
	return body
}

// matricesRegionCountCrasher is the second: a 40-byte matrices body
// with an empty Table I and no vocabulary whose region count is
// 939,524,096, which decodeMatrices turned into a 15 GB []string.
func matricesRegionCountCrasher() []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(core.DefaultMinSupport))
	b = binary.LittleEndian.AppendUint32(b, 0) // rows
	b = binary.LittleEndian.AppendUint64(b, 0) // top total
	b = binary.LittleEndian.AppendUint64(b, 0) // top item total
	b = binary.LittleEndian.AppendUint32(b, 0) // item names: count
	b = binary.LittleEndian.AppendUint32(b, 0) // item names: blob length
	return binary.LittleEndian.AppendUint32(b, 0x38000000)
}

// allocatedBy reports the bytes f allocated on the heap.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecodeBoundsCountsByBytesLeft(t *testing.T) {
	for _, tc := range []struct {
		name   string
		body   []byte
		decode func([]byte) (any, error)
	}{
		{"mine intern count", mineInternCountCrasher(t), decodeMine},
		{"matrices region count", matricesRegionCountCrasher(), decodeMatrices},
	} {
		var err error
		n := allocatedBy(func() { _, err = tc.decode(tc.body) })
		if err == nil {
			t.Errorf("%s: crafted body decoded without error", tc.name)
		}
		if n > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes, want well under 1 MB", tc.name, n)
		}
	}
}

func fuzzDecoder(f *testing.F, kind string, decode func([]byte) (any, error), extra ...[]byte) {
	f.Add(seedBody(f, kind))
	for _, b := range extra {
		f.Add(b)
	}
	appendFn := Codecs()[kind].(flatCodec).appendFn
	f.Fuzz(func(t *testing.T, body []byte) {
		v, err := decode(body)
		if err != nil {
			return
		}
		once, err := appendFn(nil, v)
		if err != nil {
			t.Fatalf("re-encoding a decoded %s: %v", kind, err)
		}
		v2, err := decode(once)
		if err != nil {
			t.Fatalf("decoding a re-encoded %s: %v", kind, err)
		}
		twice, err := appendFn(nil, v2)
		if err != nil {
			t.Fatalf("re-encoding a decoded %s: %v", kind, err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%s re-encoding is not a fixed point", kind)
		}
	})
}

func FuzzDecodeCorpus(f *testing.F) {
	fuzzDecoder(f, "corpus", decodeCorpus)
}

func FuzzDecodeMine(f *testing.F) {
	fuzzDecoder(f, "mine", decodeMine, mineInternCountCrasher(f))
}

func FuzzDecodeMatrices(f *testing.F) {
	fuzzDecoder(f, "matrices", decodeMatrices, matricesRegionCountCrasher())
}

// FuzzDecodeCondensed covers the pdist and geodist bodies (one decoder).
// The extra seed claims the largest accepted point count, whose pair
// count times eight is past the int64 range.
func FuzzDecodeCondensed(f *testing.F) {
	fuzzDecoder(f, "pdist", decodeCondensed, binary.LittleEndian.AppendUint64(nil, math.MaxInt32))
}

// fuzzGobDecoder fuzzes a gob artifact codec, until its artifact moves to
// a flat codec: bodies go through the codec's decoder, and an accepted
// body must re-encode to a fixed point.
func fuzzGobDecoder(f *testing.F, kind string) {
	f.Add(seedBody(f, kind))
	codec := Codecs()[kind]
	encode := func(t *testing.T, v any) []byte {
		var b bytes.Buffer
		if err := codec.Encode(&b, v); err != nil {
			t.Fatalf("re-encoding a decoded %s: %v", kind, err)
		}
		return b.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		v, err := codec.Decode(bytes.NewReader(body))
		if err != nil {
			return
		}
		once := encode(t, v)
		v2, err := codec.Decode(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("decoding a re-encoded %s: %v", kind, err)
		}
		if twice := encode(t, v2); !bytes.Equal(once, twice) {
			t.Fatalf("%s re-encoding is not a fixed point", kind)
		}
	})
}

func FuzzDecodeAuth(f *testing.F) {
	fuzzGobDecoder(f, "auth")
}

// FuzzDecodeTree covers every tree artifact (the four figure trees and
// the geographic one share a codec).
func FuzzDecodeTree(f *testing.F) {
	fuzzGobDecoder(f, "tree")
}

func FuzzDecodeElbow(f *testing.F) {
	fuzzGobDecoder(f, "elbow")
}

func FuzzDecodeValidate(f *testing.F) {
	fuzzGobDecoder(f, "validate")
}
