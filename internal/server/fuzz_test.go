package server

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"testing"

	"cuisines"
)

// FuzzRequestOptions checks query-string canonicalization: for any
// query, requestOptions either rejects it or returns a canonical form
// that is a fixed point of Canonical under Go ==, so it keys the
// analysis cache and the render cache consistently. NaN is the value
// that breaks ==: a NaN-keyed cache entry can never be found or evicted.
//
//	go test -run='^$' -fuzz='^FuzzRequestOptions$' -fuzztime=15s ./internal/server
func FuzzRequestOptions(f *testing.F) {
	for _, q := range []string{
		"scale=NaN",
		"support=NaN",
		"scale=0.5&support=0.3&linkage=upgma&seed=7",
		"linkage=WARD&scale=4",
		"scale=1e-320&support=1",
		"seed=18446744073709551615&scale=Inf",
		"scale=0.001&support=0.05",
		"support=0.1",
	} {
		f.Add(q)
	}
	s := New(Config{Runner: func(context.Context, cuisines.Options) (*cuisines.Analysis, error) {
		return nil, errors.New("the fuzz target never runs an analysis")
	}})
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := &http.Request{URL: &url.URL{Path: "/v1/stats", RawQuery: rawQuery}}
		opts, canon, err := s.requestOptions(r)
		if err != nil {
			return
		}
		if !(canon.MinSupport >= MinSupport && canon.MinSupport <= 1) {
			t.Fatalf("accepted support %v outside [%g, 1]", canon.MinSupport, MinSupport)
		}
		if !(canon.Scale > 0 && canon.Scale <= MaxScale) {
			t.Fatalf("accepted scale %v outside (0, %d]", canon.Scale, MaxScale)
		}
		again, err := canon.Canonical()
		if err != nil {
			t.Fatalf("Canonical(%+v): %v", canon, err)
		}
		if again != canon {
			t.Fatalf("canonical form is not a fixed point: %+v -> %+v", canon, again)
		}
		k1, err1 := Key(canon)
		k2, err2 := Key(canon)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("Key(%+v) unstable: %+v (%v) vs %+v (%v)", canon, k1, err1, k2, err2)
		}
		if k, err := Key(opts); err != nil || k != k1 {
			t.Fatalf("cache key of the merged options %+v (%v) differs from the canonical form's %+v", k, err, k1)
		}
	})
}
