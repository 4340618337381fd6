package corpus

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

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
	// stream (seeded from Seed and the region name only) and writes its
	// batch into its own slot, in canonical profile order.
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
	// or concurrently. Every region's size is known up front, so each job
	// writes its batch straight into its slot of the profile-ordered
	// corpus, which reproduces the sequential corpus byte for byte.
	offsets := make([]int, len(selected)+1)
	for i := range selected {
		n := int(math.Round(float64(selected[i].Recipes) * scale))
		offsets[i+1] = offsets[i] + max(n, 30) // the per-region floor
	}
	recipes := make([]recipedb.Recipe, offsets[len(selected)])
	tails := newTailNames()
	parallel.For(len(selected), cfg.Workers, func(idx int) {
		p := &selected[idx]
		r := rng.New(cfg.Seed ^ hashString(p.Region))
		newRegionGen(p, regionIndexOf(p.Region), tails).fill(r, recipes[offsets[idx]:offsets[idx+1]])
	})
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

// regionGen holds a region's fully resolved generation tables. Every item
// the region can emit is resolved once, at construction, to a dense
// per-region id, so drawing a recipe costs its RNG draws plus a few
// copies: no hashing, formatting or per-recipe slice growth. The ids are
// private to the generator; recipes carry names only.
type regionGen struct {
	region string
	slug   string

	names []string       // item name by id
	kinds []itemset.Kind // item kind by id; also the index into lists

	bundles []idBundle // profile bundles plus region-specific boosters
	// singles are the independently drawn items, in draw order: the
	// band, the universal tables minus items the band overrides, the
	// sub-threshold pantry pool, then background processes and utensils.
	singles []idProb

	rare       []int32 // region-private rare ingredients, cycled by recipe index
	sharedRare []int32 // shared rare ingredients, drawn Zipf
	rareProcs  []int32 // rare processes beyond the background block
	rareUtes   []int32 // rare utensils beyond the background block

	// Per-recipe scratch, reused, so one regionGen serves one goroutine.
	// stamp[id] == epoch marks id as already in the recipe being drawn.
	stamp []uint32
	epoch uint32
	lists [3][]int32 // the recipe's item ids per kind, in draw order
	text  []byte     // the recipe's ID followed by its name
	arena []string   // unused tail of the current list arena chunk
}

type idProb struct {
	prob float64
	id   int32
}

type idBundle struct {
	prob float64
	ids  []int32
}

// tailNames are the long-tail names one Generate call draws from. The
// ingredient table holds every region's private block followed by the
// shared block; the process and utensil tables hold the background block
// followed by the rare one. Each table is cut from one string, and none
// outlives the corpora that use it.
type tailNames struct {
	ingredients, processes, utensils []string
}

func newTailNames() *tailNames {
	return &tailNames{
		ingredients: tabulate(appendTailIngredientName, len(profiles)*rareIngredientsPerRegion+sharedRareIngredients),
		processes:   tabulate(appendTailProcessName, backgroundProcessCount+rareProcessCount),
		utensils:    tabulate(appendTailUtensilName, backgroundUtensilCount+rareUtensilCount),
	}
}

// tabulate returns names 0..n-1 as substrings of one string.
func tabulate(appendName func([]byte, int) []byte, n int) []string {
	var buf []byte
	ends := make([]int, n)
	for i := range ends {
		buf = appendName(buf, i)
		ends[i] = len(buf)
	}
	all := string(buf)
	out := make([]string, n)
	start := 0
	for i, end := range ends {
		out[i] = all[start:end]
		start = end
	}
	return out
}

func newRegionGen(p *Profile, regionIdx int, tails *tailNames) *regionGen {
	g := &regionGen{region: p.Region, slug: slugify(p.Region)}
	// ids maps each profile-table item to its id, in the order the tables
	// first mention it; it is construction-only.
	ids := make(map[ItemRef]int32)
	add := func(it ItemRef) int32 {
		g.names = append(g.names, it.Name)
		g.kinds = append(g.kinds, it.Kind)
		return int32(len(g.names) - 1)
	}
	resolve := func(it ItemRef) int32 {
		id, ok := ids[it]
		if !ok {
			id = add(it)
			ids[it] = id
		}
		return id
	}
	// Names within one tail table are unique by construction, so a tail
	// item shares an id only with a profile-table item of the same name
	// and kind (a booster process is also a rare process); the tails
	// themselves skip the map.
	resolveTail := func(kind itemset.Kind, names []string) []int32 {
		out := make([]int32, len(names))
		for i, n := range names {
			id, ok := ids[ItemRef{n, kind}]
			if !ok {
				id = add(ItemRef{n, kind})
			}
			out[i] = id
		}
		return out
	}

	for _, b := range append(append([]Bundle(nil), p.Bundles...), regionBoost(regionIdx, p.Boost)...) {
		bundle := idBundle{prob: b.Prob, ids: make([]int32, len(b.Items))}
		for i, it := range b.Items {
			bundle.ids[i] = resolve(it)
		}
		g.bundles = append(g.bundles, bundle)
	}
	for _, table := range [][]ItemProb{p.Band, universalsFor(p), poolFor(p), backgroundProcessesFor(p, tails), backgroundUtensilsFor(p, tails)} {
		for _, ip := range table {
			g.singles = append(g.singles, idProb{ip.Prob, resolve(ip.Item)})
		}
	}
	rareBase := regionIdx * rareIngredientsPerRegion
	sharedBase := len(profiles) * rareIngredientsPerRegion
	g.rare = resolveTail(itemset.Ingredient, tails.ingredients[rareBase:rareBase+rareIngredientsPerRegion])
	g.sharedRare = resolveTail(itemset.Ingredient, tails.ingredients[sharedBase:])
	g.rareProcs = resolveTail(itemset.Process, tails.processes[backgroundProcessCount:])
	g.rareUtes = resolveTail(itemset.Utensil, tails.utensils[backgroundUtensilCount:])
	g.stamp = make([]uint32, len(g.names))
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

// universalsFor filters the universal tables against the region's band:
// when a profile bands an item that is also universal (e.g. a cuisine with
// its own calibrated garlic rate), the band probability is the item's
// total rate and the universal entry is dropped. Bundles, by contrast,
// model correlation on top of the universal base and do not suppress it.
func universalsFor(p *Profile) []ItemProb {
	banded := make(map[ItemRef]bool, len(p.Band))
	for _, ip := range p.Band {
		banded[ip.Item] = true
	}
	var out []ItemProb
	for _, table := range [][]ItemProb{universalIngredients, universalProcesses, universalUtensils} {
		for _, ip := range table {
			if !banded[ip.Item] {
				out = append(out, ip)
			}
		}
	}
	return out
}

// poolFor resolves the macro-region pantry pools into capped,
// sub-threshold inclusion probabilities that top the recipe up to the
// region's mean-ingredient target.
func poolFor(p *Profile) []ItemProb {
	target := p.MeanIngredients
	if target == 0 {
		target = defaultMeanIngredients
	}
	expected := universalSum(universalIngredients) + p.expectedBandIngredients() + 1.5 // rare mean
	lambda := target - expected
	if lambda <= 0 {
		return nil
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
		return nil
	}
	// Zipf-shaped weights, normalized to lambda, capped sub-threshold.
	weights := make([]float64, len(names))
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+3), -0.7)
		total += weights[i]
	}
	out := make([]ItemProb, len(names))
	for i, n := range names {
		out[i] = ItemProb{ing(n), min(lambda*weights[i]/total, subThresholdCap)}
	}
	return out
}

func backgroundProcessesFor(p *Profile, tails *tailNames) []ItemProb {
	target := p.MeanProcesses
	if target == 0 {
		target = defaultMeanProcesses
	}
	expected := p.expectedBandProcesses() + 0.8 // rare mean
	return background(target-expected, -0.5, 4, tails.processes[:backgroundProcessCount], itemset.Process)
}

func backgroundUtensilsFor(p *Profile, tails *tailNames) []ItemProb {
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
	return background(targetMeanUtensils-expected, -0.6, 3, tails.utensils[:backgroundUtensilCount], itemset.Utensil)
}

// background spreads an expected count lambda over names with weights
// (i+offset)^exponent, capping each probability sub-threshold. It returns
// nil when lambda leaves nothing to top up.
func background(lambda, exponent float64, offset int, names []string, kind itemset.Kind) []ItemProb {
	if lambda <= 0 {
		return nil
	}
	weights := make([]float64, len(names))
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+offset), exponent)
		total += weights[i]
	}
	out := make([]ItemProb, len(names))
	for i, n := range names {
		out[i] = ItemProb{ItemRef{n, kind}, min(lambda*weights[i]/total, subThresholdCap)}
	}
	return out
}

func universalSum(items []ItemProb) float64 {
	s := 0.0
	for _, ip := range items {
		s += ip.Prob
	}
	return s
}

// arenaChunk caps the strings per list-arena allocation, and
// arenaPerRecipe sizes a region's last chunks by the recipes left, a
// little above the ~25-item mean so small regions stay small.
const (
	arenaChunk     = 4096
	arenaPerRecipe = 32
)

// fill generates the region's recipes 0..len(out)-1 into out.
func (g *regionGen) fill(r *rng.RNG, out []recipedb.Recipe) {
	for i := range out {
		g.draw(r, i)
		ings := g.lists[itemset.Ingredient]
		lead := "house"
		if len(ings) > 0 {
			lead = g.names[ings[i%len(ings)]]
		}
		g.text = appendRecipeID(g.text[:0], g.slug, i)
		idLen := len(g.text)
		g.text = appendRecipeName(g.text, g.region, lead, i)
		text := string(g.text)
		left := len(out) - i
		out[i] = recipedb.Recipe{
			ID:          text[:idLen],
			Name:        text[idLen:],
			Region:      g.region,
			Ingredients: g.list(ings, left),
			Processes:   g.list(g.lists[itemset.Process], left),
			Utensils:    g.list(g.lists[itemset.Utensil], left),
		}
	}
}

// draw makes recipe i's random draws and leaves its item ids in g.lists.
// The sequence of r.Bool and zipfIndex calls, with their arguments, is
// the corpus: reordering, adding or skipping one changes every later
// recipe of the region. r.Bool is called even for zero probabilities,
// which consume no draw.
func (g *regionGen) draw(r *rng.RNG, i int) {
	g.epoch++ // a region has far fewer than 2^32 recipes, so this never wraps
	for k := range g.lists {
		g.lists[k] = g.lists[k][:0]
	}

	// Signature bundles first (they define the Table I patterns).
	for _, b := range g.bundles {
		if r.Bool(b.prob) {
			for _, id := range b.ids {
				g.include(id)
			}
		}
	}
	for _, s := range g.singles {
		if r.Bool(s.prob) {
			g.include(s.id)
		}
	}

	// Long tails: every recipe carries one region-private rare ingredient
	// (cycled for full vocabulary coverage) and, half the time, one shared
	// rare ingredient.
	g.include(g.rare[i%rareIngredientsPerRegion])
	if r.Bool(0.5) {
		g.include(g.sharedRare[zipfIndex(r, sharedRareIngredients)])
	}
	if r.Bool(0.8) {
		g.include(g.rareProcs[zipfIndex(r, rareProcessCount)])
	}
	if r.Bool(0.3) {
		g.include(g.rareUtes[zipfIndex(r, rareUtensilCount)])
	}

	// Utensil sparsity: a fixed fraction of recipes lack utensil data
	// entirely (Sec. III: 14,601 of 118k).
	if r.Bool(missingUtensilRate) {
		g.lists[itemset.Utensil] = g.lists[itemset.Utensil][:0]
	}
}

// include appends id to its kind's list unless the recipe already has it.
func (g *regionGen) include(id int32) {
	if g.stamp[id] == g.epoch {
		return
	}
	g.stamp[id] = g.epoch
	k := g.kinds[id]
	g.lists[k] = append(g.lists[k], id)
}

// list copies the names of ids into the region's list arena. An empty
// list stays nil. The full slice expression caps each list at its
// length, so appending to one recipe's list can never overwrite the
// next recipe's. left is the number of recipes still to fill, counting
// this one; it sizes a new arena chunk.
func (g *regionGen) list(ids []int32, left int) []string {
	if len(ids) == 0 {
		return nil
	}
	if len(g.arena) < len(ids) {
		g.arena = make([]string, max(len(ids), min(arenaChunk, left*arenaPerRecipe)))
	}
	out := g.arena[:len(ids):len(ids)]
	g.arena = g.arena[len(ids):]
	for j, id := range ids {
		out[j] = g.names[id]
	}
	return out
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

// appendRecipeID appends recipe i's ID, the region slug and i padded to
// six digits ("thai-000042").
func appendRecipeID(dst []byte, slug string, i int) []byte {
	dst = append(dst, slug...)
	dst = append(dst, '-')
	for w := 100000; w > 1 && i < w; w /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendInt(dst, int64(i), 10)
}

var recipeStyles = [...]string{"stew", "roast", "salad", "bake", "bowl", "plate", "pie", "soup", "grill", "braise"}

// appendRecipeName appends recipe i's display name: the lead ingredient
// with its first rune upper-cased, a style cycled by i, then the region
// and i ("Soy sauce bowl (Chinese and Mongolian #4)").
func appendRecipeName(dst []byte, region, lead string, i int) []byte {
	if r, size := utf8.DecodeRuneInString(lead); r != utf8.RuneError {
		dst = utf8.AppendRune(dst, unicode.ToUpper(r))
		lead = lead[size:]
	}
	dst = append(dst, lead...)
	dst = append(dst, ' ')
	dst = append(dst, recipeStyles[i%len(recipeStyles)]...)
	dst = append(dst, " ("...)
	dst = append(dst, region...)
	dst = append(dst, " #"...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	return append(dst, ')')
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
