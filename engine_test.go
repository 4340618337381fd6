package cuisines

import (
	"strings"
	"testing"
)

const engineTestScale = 0.05

// analysisSnapshot renders the acceptance surface: Table I, the five
// Newick strings, and the Sec. VII claims.
func analysisSnapshot(t *testing.T, a *Analysis) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(a.RenderTable())
	for _, f := range AllFigures() {
		nw, err := a.Newick(f)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(f.String() + "\n" + nw + "\n")
	}
	for _, c := range a.Claims() {
		b.WriteString(c.Name + " ")
		b.WriteString(c.Detail + " ")
		if c.Holds {
			b.WriteString("holds\n")
		} else {
			b.WriteString("fails\n")
		}
	}
	return b.String()
}

// TestEngineByteIdentityAcrossCacheStates: Table I, all five Newick
// strings and the claims are identical across cold, warm-memory and
// warm-disk executions, for Workers 1 and 8.
func TestEngineByteIdentityAcrossCacheStates(t *testing.T) {
	dir := t.TempDir()
	var want string
	for i, workers := range []int{1, 8} {
		opts := Options{Scale: engineTestScale, Workers: workers}

		e := NewEngine(EngineConfig{CacheDir: dir})
		cold, err := e.Run(opts) // cold for i==0, warm-disk for i==1
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = analysisSnapshot(t, cold)
		} else if got := analysisSnapshot(t, cold); got != want {
			t.Errorf("workers=%d warm-disk output differs from cold", workers)
		}

		warm, err := e.Run(opts) // warm-memory
		if err != nil {
			t.Fatal(err)
		}
		if got := analysisSnapshot(t, warm); got != want {
			t.Errorf("workers=%d warm-memory output differs from cold", workers)
		}
	}
}

// TestEngineLinkageOnlyChangeReusesStages mirrors the pipeline-level
// counting test at the facade: two Options differing only in Linkage
// share the corpus, mining and matrix artifacts.
func TestEngineLinkageOnlyChangeReusesStages(t *testing.T) {
	e := NewEngine(EngineConfig{})
	if _, err := e.Run(Options{Scale: engineTestScale, Linkage: "average"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Options{Scale: engineTestScale, Linkage: "ward"}); err != nil {
		t.Fatal(err)
	}
	st := e.CacheStats()
	for _, kind := range []string{"corpus", "mine", "matrices"} {
		if got := st[kind].Computed; got != 1 {
			t.Errorf("%s computed %d times across a linkage-only change, want 1", kind, got)
		}
	}
}
