package pipeline

import (
	"bytes"
	"testing"

	"cuisines/internal/core"
	"cuisines/internal/treecmp"
)

// TestValidateCodecDeterministic: one Validation has one encoding, so
// its disk file, peer frame and checksum never differ between two
// writes of the same value.
func TestValidateCodecDeterministic(t *testing.T) {
	bks := []treecmp.BkScore{{K: 2, B: 0.5}, {K: 4, B: 0.25}, {K: 8, B: 0.125}, {K: 16, B: 1}}
	v := &core.Validation{
		TreeFit: []core.TreeFit{
			{Name: "patterns-euclidean", Report: &treecmp.Report{Cophenetic: 0.6, BakersGamma: 0.4, FowlkesMallows: bks}},
			{Name: "authenticity-euclidean", Report: &treecmp.Report{Cophenetic: 0.7, RobinsonFoulds: 0.3, FowlkesMallows: bks}},
		},
		Claims: []core.Claim{{Name: "claim", Tree: "patterns", Detail: "detail", Holds: true}},
	}
	var first bytes.Buffer
	if err := validateCodec.Encode(&first, v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := validateCodec.Encode(&again, v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("encoding %d of one Validation differs from the first", i+2)
		}
	}
}
