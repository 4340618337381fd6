package corpus

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cuisines/internal/itemset"
	"cuisines/internal/parallel"
	"cuisines/internal/recipedb"
	"cuisines/internal/rng"
)

// Config controls corpus generation.
type Config struct {
	// Seed drives every random choice; the same seed yields the same
	// corpus on every platform.
	Seed uint64
	// Scale multiplies the per-region Table I recipe counts. 0 (or 1)
	// means full scale (118,171 recipes); tests typically use 0.05-0.2.
	Scale float64
	// Regions optionally restricts generation to a subset of region
	// names. Empty means all 26.
	Regions []string
	// Workers caps the number of regions generated concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 forces the sequential path. The corpus is
	// byte-identical for any value: each region draws from its own RNG
	// stream (seeded from Seed and the region name only) and the
	// per-region batches are concatenated in canonical profile order.
	Workers int
}

// DefaultSeed is the corpus seed used by every experiment in this
// repository (the paper's arXiv submission date).
const DefaultSeed = 20200426

// Default is the full-scale configuration used by the benchmark harness
// and the cmd tools.
func Default() Config { return Config{Seed: DefaultSeed, Scale: 1} }

// Corpus-wide targets from Sec. III of the paper.
const (
	defaultMeanIngredients = 10.0
	defaultMeanProcesses   = 12.0
	targetMeanUtensils     = 3.3
	// missingUtensilRate is the *forced* utensil-clearing rate. Together
	// with the ~3% of recipes that naturally draw no utensil, it
	// reproduces the paper's 14,601 utensil-less recipes out of 118,171
	// (12.4%).
	missingUtensilRate = 0.093

	// subThresholdCap keeps pool and background items strictly below the
	// paper's 0.2 mining support so they shape the authenticity matrix
	// without perturbing Table I pattern counts.
	subThresholdCap = 0.18

	// Long-tail sizing (see vocab.go): each region owns a block of rare
	// ingredient names; one shared block is drawn globally.
	rareIngredientsPerRegion = 700
	sharedRareIngredients    = 1200
	backgroundProcessCount   = 60
	rareProcessCount         = 240
	backgroundUtensilCount   = 20
	rareUtensilCount         = 44
)

// Generate builds the synthetic RecipeDB.
func Generate(cfg Config) (*recipedb.DB, error) {
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	selected, err := selectProfiles(cfg.Regions)
	if err != nil {
		return nil, err
	}

	for i := range selected {
		if err := selected[i].Validate(); err != nil {
			return nil, err
		}
	}
	// Fan out one job per region. Each region's recipes depend only on the
	// seed and the region itself — the per-region generator is seeded
	// independently of region subset, order, or worker count — so a
	// region's batch is identical whether generated alone, sequentially,
	// or concurrently, and concatenating the batches in profile order
	// reproduces the sequential corpus byte for byte.
	batches := parallel.Map(len(selected), cfg.Workers, func(idx int) []recipedb.Recipe {
		p := selected[idx]
		n := int(math.Round(float64(p.Recipes) * scale))
		if n < 30 {
			n = 30
		}
		r := rng.New(cfg.Seed ^ hashString(p.Region))
		g := newRegionGen(&p, regionIndexOf(p.Region))
		batch := make([]recipedb.Recipe, 0, n)
		for i := 0; i < n; i++ {
			batch = append(batch, g.recipe(r, i))
		}
		return batch
	})
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	recipes := make([]recipedb.Recipe, 0, total)
	for _, b := range batches {
		recipes = append(recipes, b...)
	}
	return recipedb.New(recipes)
}

func selectProfiles(regions []string) ([]Profile, error) {
	all := Profiles()
	if len(regions) == 0 {
		return all, nil
	}
	want := make(map[string]bool, len(regions))
	for _, r := range regions {
		want[r] = true
	}
	var out []Profile
	for _, p := range all {
		if want[p.Region] {
			out = append(out, p)
			delete(want, p.Region)
		}
	}
	if len(want) > 0 {
		// Name every unknown region, sorted: picking one via map
		// iteration made the error message differ run to run.
		missing := make([]string, 0, len(want))
		for r := range want {
			missing = append(missing, r)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("corpus: unknown region %q", strings.Join(missing, ", "))
	}
	return out, nil
}

// regionIndexOf returns the region's position in the canonical sorted
// order; it selects the region's private rare-name block.
func regionIndexOf(region string) int {
	all := Profiles()
	for i, p := range all {
		if p.Region == region {
			return i
		}
	}
	return 0
}

// hashString is FNV-1a, used only for seed derivation.
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// regionGen holds a region's fully resolved generation tables.
type regionGen struct {
	profile *Profile
	slug    string

	bundles []Bundle // profile bundles plus region-specific boosters

	universals []ItemProb // universal tables minus items the band overrides
	poolItems  []ItemProb // sub-threshold pantry items
	bgProcs    []ItemProb // sub-threshold background processes
	bgUtes     []ItemProb // sub-threshold background utensils

	rareBase   int // first rare-ingredient index for this region
	sharedBase int // first shared rare-ingredient index

	seen map[ItemRef]bool // recipe's scratch de-duplication set, cleared per recipe
}

func newRegionGen(p *Profile, regionIdx int) *regionGen {
	g := &regionGen{
		profile:    p,
		slug:       slugify(p.Region),
		rareBase:   regionIdx * rareIngredientsPerRegion,
		sharedBase: len(profiles) * rareIngredientsPerRegion,
		seen:       make(map[ItemRef]bool, 48),
	}
	g.bundles = append(append([]Bundle(nil), p.Bundles...), regionBoost(regionIdx, p.Boost)...)
	g.buildUniversals()
	g.buildPool()
	g.buildBackgroundProcesses()
	g.buildBackgroundUtensils()
	return g
}

// regionBoost derives `level` (max 3) booster bundles for the region:
// triples of *regional technique* processes drawn from the region's
// private block of the rare-process name space. The processes are
// region-unique (26 regions x 9 processes fit the 240-name rare pool
// disjointly), so booster patterns raise the region's Table I pattern
// count without creating cross-region pattern overlap; being pure process
// patterns they are also excluded from the headline significance ranking
// (see internal/core).
func regionBoost(regionIdx, level int) []Bundle {
	if level <= 0 {
		return nil
	}
	if level > 3 {
		level = 3
	}
	base := backgroundProcessCount + (regionIdx*9)%rareProcessCount
	out := make([]Bundle, 0, level)
	for b := 0; b < level; b++ {
		out = append(out, Bundle{
			Items: []ItemRef{
				proc(TailProcessName(base + 3*b)),
				proc(TailProcessName(base + 3*b + 1)),
				proc(TailProcessName(base + 3*b + 2)),
			},
			Prob: boostProb,
		})
	}
	return out
}

// buildUniversals filters the universal tables against the region's band:
// when a profile bands an item that is also universal (e.g. a cuisine with
// its own calibrated garlic rate), the band probability is the item's
// total rate and the universal entry is dropped. Bundles, by contrast,
// model correlation on top of the universal base and do not suppress it.
func (g *regionGen) buildUniversals() {
	banded := make(map[ItemRef]bool, len(g.profile.Band))
	for _, ip := range g.profile.Band {
		banded[ip.Item] = true
	}
	for _, table := range [][]ItemProb{universalIngredients, universalProcesses, universalUtensils} {
		for _, ip := range table {
			if !banded[ip.Item] {
				g.universals = append(g.universals, ip)
			}
		}
	}
}

// buildPool resolves the macro-region pantry pools into capped,
// sub-threshold inclusion probabilities that top the recipe up to the
// region's mean-ingredient target.
func (g *regionGen) buildPool() {
	p := g.profile
	target := p.MeanIngredients
	if target == 0 {
		target = defaultMeanIngredients
	}
	expected := universalSum(universalIngredients) + p.expectedBandIngredients() + 1.5 // rare mean
	lambda := target - expected
	if lambda <= 0 {
		return
	}

	// Items already planted by band/bundles must not be double-included.
	taken := make(map[string]bool)
	for _, ip := range p.Band {
		taken[ip.Item.Name] = true
	}
	for _, b := range p.Bundles {
		for _, it := range b.Items {
			taken[it.Name] = true
		}
	}
	for _, up := range universalIngredients {
		taken[up.Item.Name] = true
	}

	var names []string
	seen := make(map[string]bool)
	poolNames := append([]string(nil), p.Pools...)
	sort.Strings(poolNames)
	for _, pool := range poolNames {
		for _, n := range pantryPools[pool] {
			if !taken[n] && !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		return
	}
	// Zipf-shaped weights, normalized to lambda, capped sub-threshold.
	weights := make([]float64, len(names))
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+3), -0.7)
		total += weights[i]
	}
	for i, n := range names {
		prob := lambda * weights[i] / total
		if prob > subThresholdCap {
			prob = subThresholdCap
		}
		g.poolItems = append(g.poolItems, ItemProb{ing(n), prob})
	}
}

func (g *regionGen) buildBackgroundProcesses() {
	p := g.profile
	target := p.MeanProcesses
	if target == 0 {
		target = defaultMeanProcesses
	}
	expected := p.expectedBandProcesses() + 0.8 // rare mean
	lambda := target - expected
	if lambda <= 0 {
		return
	}
	weights := make([]float64, backgroundProcessCount)
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+4), -0.5)
		total += weights[i]
	}
	for i := 0; i < backgroundProcessCount; i++ {
		prob := lambda * weights[i] / total
		if prob > subThresholdCap {
			prob = subThresholdCap
		}
		g.bgProcs = append(g.bgProcs, ItemProb{proc(TailProcessName(i)), prob})
	}
}

func (g *regionGen) buildBackgroundUtensils() {
	p := g.profile
	expected := universalSum(universalUtensils) + 0.3 // rare mean
	for _, ip := range p.Band {
		if ip.Item.Kind == itemset.Utensil {
			expected += ip.Prob
		}
	}
	for _, b := range p.Bundles {
		for _, it := range b.Items {
			if it.Kind == itemset.Utensil {
				expected += b.Prob
			}
		}
	}
	lambda := targetMeanUtensils - expected
	if lambda <= 0 {
		return
	}
	weights := make([]float64, backgroundUtensilCount)
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+3), -0.6)
		total += weights[i]
	}
	for i := 0; i < backgroundUtensilCount; i++ {
		prob := lambda * weights[i] / total
		if prob > subThresholdCap {
			prob = subThresholdCap
		}
		g.bgUtes = append(g.bgUtes, ItemProb{ute(TailUtensilName(i)), prob})
	}
}

func universalSum(items []ItemProb) float64 {
	s := 0.0
	for _, ip := range items {
		s += ip.Prob
	}
	return s
}

// recipe generates the i-th recipe of the region. It reuses g's scratch
// set, so one regionGen serves one goroutine.
func (g *regionGen) recipe(r *rng.RNG, i int) recipedb.Recipe {
	var ings, procs, utes []string
	seen := g.seen
	clear(seen)
	include := func(it ItemRef) {
		if seen[it] {
			return
		}
		seen[it] = true
		switch it.Kind {
		case itemset.Ingredient:
			ings = append(ings, it.Name)
		case itemset.Process:
			procs = append(procs, it.Name)
		case itemset.Utensil:
			utes = append(utes, it.Name)
		}
	}
	maybe := func(items []ItemProb) {
		for _, ip := range items {
			if r.Bool(ip.Prob) {
				include(ip.Item)
			}
		}
	}

	// Signature bundles first (they define the Table I patterns).
	for _, b := range g.bundles {
		if r.Bool(b.Prob) {
			for _, it := range b.Items {
				include(it)
			}
		}
	}
	maybe(g.profile.Band)
	maybe(g.universals)
	maybe(g.poolItems)
	maybe(g.bgProcs)
	maybe(g.bgUtes)

	// Long tails: every recipe carries one region-private rare ingredient
	// (cycled for full vocabulary coverage) and, half the time, one shared
	// rare ingredient.
	include(ing(TailIngredientName(g.rareBase + i%rareIngredientsPerRegion)))
	if r.Bool(0.5) {
		include(ing(TailIngredientName(g.sharedBase + zipfIndex(r, sharedRareIngredients))))
	}
	if r.Bool(0.8) {
		include(proc(TailProcessName(backgroundProcessCount + zipfIndex(r, rareProcessCount))))
	}
	if r.Bool(0.3) {
		include(ute(TailUtensilName(backgroundUtensilCount + zipfIndex(r, rareUtensilCount))))
	}

	// Utensil sparsity: a fixed fraction of recipes lack utensil data
	// entirely (Sec. III: 14,601 of 118k).
	if r.Bool(missingUtensilRate) {
		utes = nil
	}

	name := recipeName(g.profile.Region, ings, i)
	return recipedb.Recipe{
		ID:          fmt.Sprintf("%s-%06d", g.slug, i),
		Name:        name,
		Region:      g.profile.Region,
		Ingredients: ings,
		Processes:   procs,
		Utensils:    utes,
	}
}

// zipfIndex draws a Zipf(0.8)-ish index in [0, n) without precomputing a
// table: inverse-transform on the approximate continuous CDF.
func zipfIndex(r *rng.RNG, n int) int {
	// For s < 1 the CDF of the continuous analogue x^-s on [1, n+1] is
	// (x^(1-s)-1)/((n+1)^(1-s)-1).
	const s = 0.8
	u := r.Float64()
	top := math.Pow(float64(n+1), 1-s) - 1
	x := math.Pow(u*top+1, 1/(1-s))
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func recipeName(region string, ings []string, i int) string {
	lead := "house"
	if len(ings) > 0 {
		lead = ings[i%len(ings)]
	}
	styles := []string{"stew", "roast", "salad", "bake", "bowl", "plate", "pie", "soup", "grill", "braise"}
	return fmt.Sprintf("%s %s (%s #%d)", strings.ToUpper(lead[:1])+lead[1:], styles[i%len(styles)], region, i)
}

func slugify(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}
