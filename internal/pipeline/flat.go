package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"cuisines/internal/core"
	"cuisines/internal/distance"
	"cuisines/internal/encode"
	"cuisines/internal/itemset"
	"cuisines/internal/matrix"
	"cuisines/internal/recipedb"
)

// Flat artifact codecs (DESIGN.md §10). The large numeric artifacts —
// mined pattern sets, the pattern feature matrix, condensed distance
// matrices — used to round-trip through gob, whose reflective decode
// allocates per element (every Set, every []float64 row fragment, every
// string). The codecs here write a position-defined little-endian
// layout instead, so a warm-disk read decodes in O(1) large
// allocations: one backing arena per homogeneous section (one string
// for all interned names, one []Item arena, one []Pattern arena, one
// []float64), with every element subsliced out of it.
//
// Each payload is framed as
//
//	"CFL1" | u32 crc32c(body) | body
//
// giving the codec its own integrity check independent of the artifact
// store's sha256 envelope, so a flat payload is self-validating even
// when written or read outside the store. Any framing, checksum, length
// or order violation is a decode error, which the store treats as a
// cache miss and recomputes — never a crash.

var (
	flatMagic    = [4]byte{'C', 'F', 'L', '1'}
	crc32cTable  = crc32.MakeTable(crc32.Castagnoli)
	errFlatFrame = fmt.Errorf("pipeline: flat artifact framing invalid")
)

// flatCodec is an artifact.Codec whose encode appends to a byte slice
// and whose decode reads from one. It implements the store's optional
// AppendEncoder/BytesDecoder fast paths; the io.Writer/io.Reader forms
// delegate to them for callers outside the store.
type flatCodec struct {
	kind     string
	version  int
	appendFn func(dst []byte, v any) ([]byte, error)
	decodeFn func(data []byte) (any, error)
}

func (c flatCodec) Kind() string { return c.kind }
func (c flatCodec) Version() int { return c.version }

// AppendEncode frames the body with magic + crc32c.
func (c flatCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	dst = append(dst, flatMagic[:]...)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	bodyStart := len(dst)
	dst, err := c.appendFn(dst, v)
	if err != nil {
		return nil, err
	}
	crc := crc32.Checksum(dst[bodyStart:], crc32cTable)
	binary.LittleEndian.PutUint32(dst[bodyStart-4:], crc)
	return dst, nil
}

// DecodeBytes verifies the frame and hands the body to the decoder.
func (c flatCodec) DecodeBytes(data []byte) (any, error) {
	if len(data) < 8 || [4]byte(data[:4]) != flatMagic {
		return nil, errFlatFrame
	}
	body := data[8:]
	if crc32.Checksum(body, crc32cTable) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, fmt.Errorf("pipeline: flat artifact crc mismatch")
	}
	return c.decodeFn(body)
}

func (c flatCodec) Encode(w io.Writer, v any) error {
	b, err := c.AppendEncode(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func (c flatCodec) Decode(r io.Reader) (any, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return c.DecodeBytes(data)
}

// flatReader is a bounds-checked cursor over a decode body. The first
// out-of-range read latches err and every later read returns zeros, so
// decoders can parse straight-line and check err once.
type flatReader struct {
	data []byte
	off  int
	err  error
}

func (r *flatReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("pipeline: flat artifact truncated reading %s at %d", what, r.off)
	}
}

func (r *flatReader) bytes(n int, what string) []byte {
	if r.err != nil || n < 0 || len(r.data)-r.off < n {
		r.fail(what)
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *flatReader) u32(what string) uint32 {
	b := r.bytes(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *flatReader) u64(what string) uint64 {
	b := r.bytes(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *flatReader) f64(what string) float64 {
	return math.Float64frombits(r.u64(what))
}

// remaining reports how many body bytes are still unread.
func (r *flatReader) remaining() int { return len(r.data) - r.off }

// count bounds a decoded element count by the bytes left before the
// caller allocates for it: every element occupies at least minBytes of
// the body, so a count the rest of the body cannot hold is corrupt.
// Without the bound, one mutated count field drives a multi-gigabyte
// make before any read notices that the body ran out.
func (r *flatReader) count(n uint64, minBytes int, what string) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/minBytes) {
		r.err = fmt.Errorf("pipeline: flat artifact %s %d exceeds the %d bytes left at %d", what, n, r.remaining(), r.off)
		return 0
	}
	return int(n)
}

func (r *flatReader) rest() []byte {
	b := r.data[r.off:]
	r.off = len(r.data)
	return b
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func (r *flatReader) string(what string) string {
	n := r.u32(what)
	return string(r.bytes(int(n), what))
}

// internTable assigns dense ids to strings in first-seen order during
// an encode pass.
type internTable struct {
	ids  map[string]uint32
	list []string
}

func newInternTable() *internTable {
	return &internTable{ids: make(map[string]uint32)}
}

func (t *internTable) id(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.list))
	t.ids[s] = id
	t.list = append(t.list, s)
	return id
}

// appendInterned writes an intern table: u32 count, u32 blob length,
// the concatenated names, then count × u32 name lengths.
func appendInterned(dst []byte, names []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(names)))
	blobLen := 0
	for _, s := range names {
		blobLen += len(s)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(blobLen))
	for _, s := range names {
		dst = append(dst, s...)
	}
	for _, s := range names {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	}
	return dst
}

// readInterned decodes an intern table in two allocations: one string
// conversion of the whole blob and one []string of substrings sharing
// its backing.
func (r *flatReader) readInterned(what string) []string {
	rawCount := r.u32(what)
	blobLen := int(r.u32(what))
	blob := string(r.bytes(blobLen, what))
	count := r.count(uint64(rawCount), 4, what) // one u32 length each
	if r.err != nil {
		return nil
	}
	names := make([]string, count)
	off := 0
	for i := range names {
		n := int(r.u32(what))
		if r.err != nil || off+n > len(blob) {
			r.fail(what)
			return nil
		}
		names[i] = blob[off : off+n]
		off += n
	}
	if off != len(blob) {
		r.fail(what)
		return nil
	}
	return names
}

// appendPatternTail writes one pattern (minus any leading per-use
// fields): f64 support | u64 count | u32 numItems | numItems × (u32
// nameID, u8 kind). Item names must already be interned in names.
func appendPatternTail(dst []byte, p itemset.Pattern, names *internTable) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Support))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Count))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.Items.Len()))
	for _, it := range p.Items.Items() {
		dst = binary.LittleEndian.AppendUint32(dst, names.id(it.Name))
		dst = append(dst, byte(it.Kind))
	}
	return dst
}

// readPatternTail reverses appendPatternTail, carving the pattern's
// items from the shared arena. The Set is rebuilt through
// itemset.SetFromSorted, which re-verifies canonical order so a
// corrupted body cannot produce a malformed Set.
func (r *flatReader) readPatternTail(names []string, itemArena []itemset.Item, itemUsed *int) (itemset.Pattern, error) {
	sup := r.f64("pattern support")
	cnt := int(r.u64("pattern count value"))
	ni := int(r.u32("item count"))
	if r.err != nil {
		return itemset.Pattern{}, r.err
	}
	if ni < 0 || ni > len(itemArena)-*itemUsed {
		return itemset.Pattern{}, fmt.Errorf("pipeline: flat artifact item total %d exceeded", len(itemArena))
	}
	items := itemArena[*itemUsed : *itemUsed+ni : *itemUsed+ni]
	*itemUsed += ni
	for k := range items {
		nameID := int(r.u32("item name id"))
		kindB := r.bytes(1, "item kind")
		if r.err != nil {
			return itemset.Pattern{}, r.err
		}
		if nameID >= len(names) {
			return itemset.Pattern{}, fmt.Errorf("pipeline: flat artifact name id %d out of range %d", nameID, len(names))
		}
		items[k] = itemset.Item{Name: names[nameID], Kind: itemset.Kind(kindB[0])}
	}
	set, err := itemset.SetFromSorted(items)
	if err != nil {
		return itemset.Pattern{}, err
	}
	return itemset.Pattern{Items: set, Support: sup, Count: cnt}, nil
}

// --- corpus: *recipedb.DB ---------------------------------------------
//
// Body layout:
//
//	u32 numRecipes
//	intern table of region and item names (first-seen order)
//	string table of recipe IDs and names: intern-table format without
//	  dedupe, ID then name for each recipe in stored order
//	u64 totalListEntries
//	per recipe: u32 regionID | u32 nIng | u32 nProc | u32 nUt |
//	  (nIng+nProc+nUt) × u32 nameID
//
// The corpus is the largest artifact by far (≈118k recipes at paper
// scale). Under gob every recipe list and every name string was its own
// allocation; here a decode makes a handful: one string per table, one
// []string arena that every recipe's Ingredients, Processes and
// Utensils subslice, and the []Recipe. The DB is rebuilt through
// recipedb.New, so per-recipe validation, the duplicate-ID check and
// the region index run exactly as for any other constructed DB.

// corpusRecipeHeader is the fixed per-recipe size: region id and the
// three list lengths.
const corpusRecipeHeader = 16

func appendCorpus(dst []byte, v any) ([]byte, error) {
	db, ok := v.(*recipedb.DB)
	if !ok {
		return nil, fmt.Errorf("pipeline: corpus artifact is %T, want *recipedb.DB", v)
	}
	return appendRecipes(dst, db.Recipes()), nil
}

// appendRecipes writes the corpus body for recipes in stored order.
func appendRecipes(dst []byte, recipes []recipedb.Recipe) []byte {
	names := newInternTable()
	strs := make([]string, 0, 2*len(recipes))
	var total uint64
	for i := range recipes {
		r := &recipes[i]
		total += uint64(len(r.Ingredients) + len(r.Processes) + len(r.Utensils))
	}
	// One pass interns every name and lays out the per-recipe section,
	// which must follow the tables it indexes into.
	section := make([]byte, 0, corpusRecipeHeader*uint64(len(recipes))+4*total)
	for i := range recipes {
		r := &recipes[i]
		strs = append(strs, r.ID, r.Name)
		section = binary.LittleEndian.AppendUint32(section, names.id(r.Region))
		lists := [3][]string{r.Ingredients, r.Processes, r.Utensils}
		for _, list := range lists {
			section = binary.LittleEndian.AppendUint32(section, uint32(len(list)))
		}
		for _, list := range lists {
			for _, s := range list {
				section = binary.LittleEndian.AppendUint32(section, names.id(s))
			}
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recipes)))
	dst = appendInterned(dst, names.list)
	dst = appendInterned(dst, strs)
	dst = binary.LittleEndian.AppendUint64(dst, total)
	return append(dst, section...)
}

func decodeCorpus(body []byte) (any, error) {
	r := &flatReader{data: body}
	n := r.count(uint64(r.u32("recipe count")), corpusRecipeHeader, "recipe count")
	names := r.readInterned("names")
	strs := r.readInterned("recipe ids and names")
	total := r.count(r.u64("list total"), 4, "list total")
	if r.err != nil {
		return nil, r.err
	}
	if len(strs) != 2*n {
		return nil, fmt.Errorf("pipeline: corpus artifact has %d id/name strings for %d recipes", len(strs), n)
	}
	// The section must hold exactly n headers and total ids, so the walk
	// below needs no per-read check beyond the arena bound.
	section := r.rest()
	if len(section) != corpusRecipeHeader*n+4*total {
		return nil, fmt.Errorf("pipeline: corpus artifact recipe section is %d bytes, want %d", len(section), corpusRecipeHeader*n+4*total)
	}
	arena := make([]string, total)
	recipes := make([]recipedb.Recipe, n)
	used, off := 0, 0
	next := func() int {
		v := binary.LittleEndian.Uint32(section[off:])
		off += 4
		return int(v)
	}
	for i := range recipes {
		rec := &recipes[i]
		rec.ID, rec.Name = strs[2*i], strs[2*i+1]
		region := next()
		if region >= len(names) {
			return nil, fmt.Errorf("pipeline: corpus artifact region id %d out of range %d", region, len(names))
		}
		rec.Region = names[region]
		var lens [3]int
		for k := range lens {
			lens[k] = next()
		}
		if lens[0]+lens[1]+lens[2] > total-used {
			return nil, fmt.Errorf("pipeline: corpus artifact list total %d exceeded", total)
		}
		lists := [3]*[]string{&rec.Ingredients, &rec.Processes, &rec.Utensils}
		for k, list := range lists {
			if lens[k] == 0 {
				continue // an empty list stays nil
			}
			items := arena[used : used+lens[k] : used+lens[k]]
			used += lens[k]
			for j := range items {
				id := next()
				if id >= len(names) {
					return nil, fmt.Errorf("pipeline: corpus artifact name id %d out of range %d", id, len(names))
				}
				items[j] = names[id]
			}
			*list = items
		}
	}
	if used != total {
		return nil, fmt.Errorf("pipeline: corpus artifact lists hold %d entries, header says %d", used, total)
	}
	db, err := recipedb.New(recipes)
	if err != nil {
		return nil, err
	}
	return db, nil
}

// --- mine: []core.RegionPatterns ---------------------------------------
//
// Body layout:
//
//	u32 numRegions | u64 totalPatterns | u64 totalItems
//	intern table of item names (first-seen order)
//	per region: string name | u64 recipes | u32 numPatterns
//	  per pattern: pattern tail (see appendPatternTail)
//
// The totals up front let the decoder allocate the pattern and item
// arenas before the walk; every Set subslices the item arena.

func appendMine(dst []byte, v any) ([]byte, error) {
	rps, ok := v.([]core.RegionPatterns)
	if !ok {
		return nil, fmt.Errorf("pipeline: mine artifact is %T, want []core.RegionPatterns", v)
	}
	var totalPatterns, totalItems uint64
	names := newInternTable()
	for _, rp := range rps {
		totalPatterns += uint64(len(rp.Patterns))
		for _, p := range rp.Patterns {
			totalItems += uint64(p.Items.Len())
			for _, it := range p.Items.Items() {
				names.id(it.Name)
			}
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rps)))
	dst = binary.LittleEndian.AppendUint64(dst, totalPatterns)
	dst = binary.LittleEndian.AppendUint64(dst, totalItems)
	dst = appendInterned(dst, names.list)
	for _, rp := range rps {
		dst = appendString(dst, rp.Region)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(rp.Recipes))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rp.Patterns)))
		for _, p := range rp.Patterns {
			dst = appendPatternTail(dst, p, names)
		}
	}
	return dst, nil
}

func decodeMine(body []byte) (any, error) {
	r := &flatReader{data: body}
	// Minimum encoded sizes: a region is name length, recipes and
	// pattern count (16 bytes); a pattern tail is support, count and
	// item count (20); an item is name id and kind (5).
	numRegions := r.count(uint64(r.u32("region count")), 16, "region count")
	totalPatterns := r.count(r.u64("pattern total"), 20, "pattern total")
	totalItems := r.count(r.u64("item total"), 5, "item total")
	names := r.readInterned("item names")
	if r.err != nil {
		return nil, r.err
	}
	// The arenas: every pattern and item across all regions lives in
	// one backing array each.
	patArena := make([]itemset.Pattern, totalPatterns)
	itemArena := make([]itemset.Item, totalItems)
	patUsed, itemUsed := 0, 0
	rps := make([]core.RegionPatterns, numRegions)
	for i := range rps {
		rps[i].Region = r.string("region name")
		rps[i].Recipes = int(r.u64("recipe count"))
		np := int(r.u32("pattern count"))
		if r.err != nil {
			return nil, r.err
		}
		if np > len(patArena)-patUsed {
			return nil, fmt.Errorf("pipeline: mine artifact pattern total %d exceeded", len(patArena))
		}
		pats := patArena[patUsed : patUsed+np : patUsed+np]
		patUsed += np
		for j := range pats {
			p, err := r.readPatternTail(names, itemArena, &itemUsed)
			if err != nil {
				return nil, err
			}
			pats[j] = p
		}
		rps[i].Patterns = pats
		if np == 0 {
			rps[i].Patterns = nil
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) || patUsed != len(patArena) || itemUsed != len(itemArena) {
		return nil, fmt.Errorf("pipeline: mine artifact has trailing or missing data")
	}
	return rps, nil
}

// --- matrices: *PatternFeatures ----------------------------------------
//
// Body layout:
//
//	f64 minSupport | u32 numRows | u64 totalTop | u64 totalTopItems
//	intern table of headline-pattern item names
//	per row: string region | u64 recipes | u64 patternCount | u32 numTop
//	  per scored pattern: f64 score | pattern tail
//	u32 numRegions | numRegions × string
//	intern table of vocabulary string patterns
//	flat Dense (trailing, self-sized)
//
// Table I is tiny on the wire but was the matrices artifact's dominant
// decode cost under gob: every nested Set spun up its own reflective
// decoder (~14k allocations for a 9 KB table). Flat, the table decodes
// through the same arena walk as the mine artifact, the vocabulary
// (hundreds of encoded string patterns) through the intern table's two
// allocations, and the feature matrix through matrix.DecodeFlat's
// single []float64.

func appendMatrices(dst []byte, v any) ([]byte, error) {
	pf, ok := v.(*PatternFeatures)
	if !ok {
		return nil, fmt.Errorf("pipeline: matrices artifact is %T, want *PatternFeatures", v)
	}
	if pf.Table1 == nil || pf.Matrix == nil || pf.Matrix.X == nil {
		return nil, fmt.Errorf("pipeline: matrices artifact has nil sections")
	}
	t1 := pf.Table1
	var totalTop, totalItems uint64
	names := newInternTable()
	for _, row := range t1.Rows {
		totalTop += uint64(len(row.Top))
		for _, sp := range row.Top {
			totalItems += uint64(sp.Pattern.Items.Len())
			for _, it := range sp.Pattern.Items.Items() {
				names.id(it.Name)
			}
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t1.MinSupport))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t1.Rows)))
	dst = binary.LittleEndian.AppendUint64(dst, totalTop)
	dst = binary.LittleEndian.AppendUint64(dst, totalItems)
	dst = appendInterned(dst, names.list)
	for _, row := range t1.Rows {
		dst = appendString(dst, row.Region)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(row.Recipes))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(row.Patterns))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row.Top)))
		for _, sp := range row.Top {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(sp.Score))
			dst = appendPatternTail(dst, sp.Pattern, names)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pf.Matrix.Regions)))
	for _, region := range pf.Matrix.Regions {
		dst = appendString(dst, region)
	}
	dst = appendInterned(dst, pf.Matrix.Vocabulary)
	return pf.Matrix.X.AppendFlat(dst), nil
}

func decodeMatrices(body []byte) (any, error) {
	r := &flatReader{data: body}
	minSupport := r.f64("min support")
	// Minimum encoded sizes: a row is region length, recipes, pattern
	// count and top count (24 bytes); a scored pattern is its score plus
	// a pattern tail (28); an item is name id and kind (5).
	numRows := r.count(uint64(r.u32("row count")), 24, "row count")
	totalTop := r.count(r.u64("top total"), 28, "top total")
	totalItems := r.count(r.u64("top item total"), 5, "top item total")
	names := r.readInterned("item names")
	if r.err != nil {
		return nil, r.err
	}
	topArena := make([]core.ScoredPattern, totalTop)
	itemArena := make([]itemset.Item, totalItems)
	topUsed, itemUsed := 0, 0
	t1 := &core.Table1{MinSupport: minSupport, Rows: make([]core.Table1Row, numRows)}
	for i := range t1.Rows {
		row := &t1.Rows[i]
		row.Region = r.string("row region")
		row.Recipes = int(r.u64("row recipes"))
		row.Patterns = int(r.u64("row pattern count"))
		nt := int(r.u32("row top count"))
		if r.err != nil {
			return nil, r.err
		}
		if nt < 0 || nt > len(topArena)-topUsed {
			return nil, fmt.Errorf("pipeline: matrices artifact top total %d exceeded", len(topArena))
		}
		tops := topArena[topUsed : topUsed+nt : topUsed+nt]
		topUsed += nt
		for j := range tops {
			score := r.f64("top score")
			p, err := r.readPatternTail(names, itemArena, &itemUsed)
			if err != nil {
				return nil, err
			}
			tops[j] = core.ScoredPattern{Pattern: p, Score: score}
		}
		row.Top = tops
		if nt == 0 {
			row.Top = nil
		}
	}
	if topUsed != len(topArena) || itemUsed != len(itemArena) {
		return nil, fmt.Errorf("pipeline: matrices artifact has missing table data")
	}
	numRegions := r.count(uint64(r.u32("region count")), 4, "region count")
	if r.err != nil {
		return nil, r.err
	}
	regions := make([]string, numRegions)
	for i := range regions {
		regions[i] = r.string("region name")
	}
	vocab := r.readInterned("vocabulary")
	if r.err != nil {
		return nil, r.err
	}
	x, err := matrix.DecodeFlat(r.rest())
	if err != nil {
		return nil, err
	}
	return &PatternFeatures{
		Table1: t1,
		Matrix: &encode.PatternMatrix{Regions: regions, Vocabulary: vocab, X: x},
	}, nil
}

// --- pdist / geodist: *distance.Condensed ------------------------------

func appendCondensed(dst []byte, v any) ([]byte, error) {
	c, ok := v.(*distance.Condensed)
	if !ok {
		return nil, fmt.Errorf("pipeline: distance artifact is %T, want *distance.Condensed", v)
	}
	return c.AppendFlat(dst), nil
}

func decodeCondensed(body []byte) (any, error) {
	return distance.DecodeFlat(body)
}
