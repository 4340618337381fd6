package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"

	"cuisines/internal/artifact"
	"cuisines/internal/authenticity"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/distance"
	"cuisines/internal/geo"
	"cuisines/internal/hac"
	"cuisines/internal/kmeans"
	"cuisines/internal/miner"
	"cuisines/internal/parallel"
	"cuisines/internal/pipeline"
	"cuisines/internal/recipedb"
)

// computeLayers are the compute-stage span names of the cold replay,
// each the public call pipeline.runFrom makes for that stage.
var computeLayers = []string{"corpus.generate", "mine", "matrices", "auth", "pdist", "geodist", "tree", "elbow", "validate"}

// replayCold re-runs the paper's evaluation by calling, with the same
// arguments and the same fan-out, the public functions that
// pipeline.Run calls for a cold run at default analysis options — with
// a span around each call. Like the artifact store, it frames each
// stage's value with the stage codec and writes the frame to dir.
// It returns the mined pattern count.
func replayCold(rec *recorder, req, root int, seed uint64, scale float64, dir string) (patterns int, err error) {
	codecs := pipeline.Codecs()
	// stage wraps one stage: its compute call, then encode and write,
	// all under a "stage.<kind>" span — the shape of GetOrCompute on a
	// cold key.
	stage := func(kind, layer string, compute func() (any, error)) (any, error) {
		st := rec.begin("stage."+kind, root, req)
		defer rec.end(st)
		sp := rec.begin(layer, st, req)
		v, err := compute()
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", layer, err)
		}
		sp = rec.begin("artifact.encode", st, req)
		frame, err := artifact.EncodeFrame(codecs[kind], v)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", kind, err)
		}
		sp = rec.begin("artifact.write", st, req)
		sum := sha256.Sum256(frame)
		name := filepath.Join(dir, fmt.Sprintf("%s-%x.art", kind, sum[:8]))
		err = os.WriteFile(name, frame, 0o644)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		return v, nil
	}

	minSupport := core.DefaultMinSupport
	method := core.DefaultLinkage
	v, err := stage("corpus", "corpus.generate", func() (any, error) {
		return corpus.Generate(corpus.Config{Seed: seed, Scale: scale})
	})
	if err != nil {
		return 0, err
	}
	db := v.(*recipedb.DB)
	v, err = stage("mine", "mine", func() (any, error) {
		return core.MineRegionsWith(db, minSupport, 0, miner.Default)
	})
	if err != nil {
		return 0, err
	}
	mined := v.([]core.RegionPatterns)
	for _, rp := range mined {
		patterns += len(rp.Patterns)
	}
	v, err = stage("matrices", "matrices", func() (any, error) {
		t1, pm, err := core.BuildPatternFeatures(mined, minSupport)
		if err != nil {
			return nil, err
		}
		return &pipeline.PatternFeatures{Table1: t1, Matrix: pm}, nil
	})
	if err != nil {
		return 0, err
	}
	feats := v.(*pipeline.PatternFeatures)

	outer, inner := core.SplitWorkers(0)
	figs := &core.Figures{Table1: feats.Table1, Patterns: feats.Matrix, Mined: mined}
	link := func(name string, d *distance.Condensed, labels []string, metric distance.Metric, m hac.Method) (*core.CuisineTree, error) {
		v, err := stage("tree", "tree", func() (any, error) {
			lk, err := hac.Cluster(d, m)
			if err != nil {
				return nil, err
			}
			tree, err := hac.BuildTree(lk, labels)
			if err != nil {
				return nil, err
			}
			return &core.CuisineTree{Name: name, Tree: tree, Distances: d, Metric: metric, Linkage: m}, nil
		})
		if err != nil {
			return nil, err
		}
		return v.(*core.CuisineTree), nil
	}
	pdist := func(x func() *distance.Condensed) (*distance.Condensed, error) {
		v, err := stage("pdist", "pdist", func() (any, error) { return x(), nil })
		if err != nil {
			return nil, err
		}
		return v.(*distance.Condensed), nil
	}
	patternTree := func(metric distance.Metric, m hac.Method) (*core.CuisineTree, error) {
		d, err := pdist(func() *distance.Condensed { return distance.PdistWorkers(feats.Matrix.X, metric, inner) })
		if err != nil {
			return nil, err
		}
		return link("patterns-"+metric.String(), d, feats.Matrix.Regions, metric, m)
	}
	err = parallel.Do(outer,
		func() error {
			v, err := stage("elbow", "elbow", func() (any, error) {
				return kmeans.Elbow(feats.Matrix.X, core.ElbowKMax, kmeans.Options{Seed: core.ElbowSeed, Workers: inner})
			})
			if err == nil {
				figs.Elbow = v.(*kmeans.ElbowCurve)
			}
			return err
		},
		func() (err error) {
			figs.Euclidean, err = patternTree(distance.Euclidean, core.EuclideanLinkage)
			return err
		},
		func() (err error) {
			figs.Cosine, err = patternTree(distance.Cosine, method)
			return err
		},
		func() (err error) {
			figs.Jaccard, err = patternTree(distance.Jaccard, method)
			return err
		},
		func() error {
			v, err := stage("auth", "auth", func() (any, error) {
				return authenticity.Build(db, authenticity.Options{MinRegionPrevalence: core.AuthMinRegionPrevalence})
			})
			if err != nil {
				return err
			}
			am := v.(*authenticity.Matrix)
			figs.AuthMat = am
			d, err := pdist(func() *distance.Condensed {
				return distance.PdistWorkers(am.FeatureMatrix(), distance.Euclidean, inner)
			})
			if err != nil {
				return err
			}
			figs.Auth, err = link("authenticity-euclidean", d, am.Regions, distance.Euclidean, method)
			return err
		},
		func() error {
			v, err := stage("geodist", "geodist", func() (any, error) { return geo.DistanceMatrix(db.Regions()) })
			if err != nil {
				return err
			}
			figs.Geo, err = link("geographic", v.(*distance.Condensed), db.Regions(), distance.Euclidean, method)
			return err
		},
	)
	if err != nil {
		return 0, err
	}
	if _, err := stage("validate", "validate", func() (any, error) { return core.Validate(figs) }); err != nil {
		return 0, err
	}
	return patterns, nil
}

// artifactFile is one frame of a cache directory with its codec.
type artifactFile struct {
	path  string
	codec artifact.Codec
}

// artifactFiles lists the frames in dir with their codecs, taken from
// the kind prefix of each file name (the store names files
// "<kind>-v<version>-<key>.art").
func artifactFiles(dir string) ([]artifactFile, error) {
	codecs := pipeline.Codecs()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []artifactFile
	for _, e := range ents {
		kind, _, ok := strings.Cut(e.Name(), "-")
		if !ok || !strings.HasSuffix(e.Name(), ".art") {
			continue
		}
		c, ok := codecs[kind]
		if !ok {
			return nil, fmt.Errorf("artifact file %s: unknown kind", e.Name())
		}
		out = append(out, artifactFile{path: filepath.Join(dir, e.Name()), codec: c})
	}
	return out, nil
}

// matchFrames pairs each frame in got with a frame of the same kind in
// want: byte-equal when it can, and otherwise decoded-value-equal —
// gob encodes maps in random order (the validate artifact holds one),
// so one value has more than one valid encoding. It fails unless every
// frame pairs up, and reports how many pairs matched only by value.
func matchFrames(got, want []artifactFile) (valueOnly int, err error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%d frames, want %d", len(got), len(want))
	}
	type frame struct {
		f    artifactFile
		data []byte
	}
	load := func(fs []artifactFile) (map[string][]frame, error) {
		out := map[string][]frame{}
		for _, f := range fs {
			data, err := os.ReadFile(f.path)
			if err != nil {
				return nil, err
			}
			out[f.codec.Kind()] = append(out[f.codec.Kind()], frame{f, data})
		}
		return out, nil
	}
	g, err := load(got)
	if err != nil {
		return 0, err
	}
	w, err := load(want)
	if err != nil {
		return 0, err
	}
	for kind, gs := range g {
		ws := w[kind]
		var left []frame
		for _, x := range gs {
			i := slices.IndexFunc(ws, func(y frame) bool { return bytes.Equal(x.data, y.data) })
			if i < 0 {
				left = append(left, x)
				continue
			}
			ws = slices.Delete(ws, i, i+1)
		}
		for _, x := range left {
			xv, err := artifact.DecodeFrame(x.data, x.f.codec)
			if err != nil {
				return 0, err
			}
			i := slices.IndexFunc(ws, func(y frame) bool {
				yv, err := artifact.DecodeFrame(y.data, y.f.codec)
				return err == nil && reflect.DeepEqual(xv, yv)
			})
			if i < 0 {
				return 0, fmt.Errorf("%s frame %s matches no frame the cold run wrote", kind, filepath.Base(x.f.path))
			}
			ws = slices.Delete(ws, i, i+1)
			valueOnly++
		}
		if len(ws) > 0 {
			return 0, fmt.Errorf("%d %s frames of the cold run were not replayed", len(ws), kind)
		}
	}
	return valueOnly, nil
}

// replayRead times the disk tier's read side for each file — read,
// verify, decode, the three steps of a warm-disk load — under one
// "artifact.load" span per file. DecodeFrame verifies the frame again
// before decoding, as the store does, so decode time is reported as the
// decode span minus the verify span of the same frame.
func replayRead(rec *recorder, req, root int, files []artifactFile) error {
	for _, f := range files {
		ld := rec.begin("artifact.load", root, req)
		sp := rec.begin("artifact.read", ld, req)
		data, err := os.ReadFile(f.path)
		rec.end(sp)
		if err != nil {
			return err
		}
		if err := replayFrame(rec, req, ld, f.codec, data); err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(f.path), err)
		}
		rec.end(ld)
	}
	return nil
}

// replayFrame times VerifyFrame and DecodeFrame on one frame.
func replayFrame(rec *recorder, req, parent int, codec artifact.Codec, frame []byte) error {
	sp := rec.begin("artifact.verify."+codec.Kind(), parent, req)
	err := artifact.VerifyFrame(frame, codec)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("artifact.decode."+codec.Kind(), parent, req)
	_, err = artifact.DecodeFrame(frame, codec)
	rec.end(sp)
	return err
}
