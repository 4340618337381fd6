package corpus

import "strconv"

// This file holds the shared vocabulary: the universal item tables present
// in (almost) every cuisine, the macro-region pantry pools that drive the
// authenticity clustering, and the synthetic long-tail name generators
// that give the corpus its Sec. III uniqueness profile (20k+ ingredients,
// ~268 processes, ~69 utensils).

// universalProcesses are cooking actions frequent in every cuisine. Their
// probabilities sit below the 0.45 pairing line so that independent pairs
// stay under the 0.2 support threshold; multi-process patterns only arise
// through explicit bundles, matching the paper's skew observation
// ("processes such as 'add' and 'cook' ... are fundamental to cooking in
// many cuisines").
var universalProcesses = []ItemProb{
	{proc("add"), 0.42},
	{proc("heat"), 0.34},
	{proc("cook"), 0.30},
	{proc("stir"), 0.27},
	{proc("mix"), 0.25},
	{proc("pour"), 0.23},
	{proc("place"), 0.22},
	{proc("serve"), 0.21},
	{proc("chop"), 0.18},
	{proc("drain"), 0.16},
	{proc("cover"), 0.15},
	{proc("remove"), 0.14},
	{proc("cut"), 0.13},
	{proc("cool"), 0.12},
	{proc("season"), 0.11},
}

// universalIngredients are pantry staples frequent everywhere (salt,
// water, sugar, pepper). They are classified "universal" by the
// significance ranker and therefore never reported as a cuisine's top
// pattern on their own, exactly as in Table I.
var universalIngredients = []ItemProb{
	{ing("salt"), 0.35},
	{ing("water"), 0.28},
	{ing("sugar"), 0.24},
	{ing("black pepper"), 0.21},
	{ing("vegetable oil"), 0.18},
	{ing("flour"), 0.15},
	{ing("egg"), 0.14},
	{ing("garlic"), 0.13},
	{ing("milk"), 0.11},
}

// universalUtensils appear at low rates everywhere; regional signature
// utensils (oven, skillet, bowl, wok) live in the profiles.
var universalUtensils = []ItemProb{
	{ute("pan"), 0.17},
	{ute("pot"), 0.15},
	{ute("knife"), 0.12},
	{ute("spoon"), 0.10},
	{ute("plate"), 0.07},
}

// pantryPools are macro-region ingredient pools. Pool items are included
// at sub-threshold probabilities (capped below 0.2) scaled to meet the
// per-recipe ingredient mean, so they shape the authenticity matrix
// (Fig. 5) and the geographic structure of every tree without inflating
// the Table I pattern counts.
var pantryPools = map[string][]string{
	"eastasia": {
		"soy sauce", "ginger", "green onion", "rice", "sesame oil", "rice vinegar",
		"tofu", "bok choy", "shiitake mushroom", "napa cabbage", "rice wine",
		"oyster sauce", "white pepper", "star anise", "bean sprout", "snow pea",
		"water chestnut", "bamboo shoot", "hoisin sauce", "chili oil", "dried shrimp",
		"lotus root", "daikon", "seaweed", "bonito flake", "short grain rice",
		"fermented bean paste", "century egg", "glass noodle", "five spice powder",
	},
	"seasia": {
		"fish sauce", "coconut milk", "lemongrass", "lime", "chili", "galangal",
		"shrimp paste", "kaffir lime leaf", "thai basil", "rice noodle", "palm sugar",
		"tamarind", "bird eye chili", "cilantro root", "turmeric leaf", "pandan leaf",
		"candlenut", "shallot", "peanut", "jasmine rice", "banana leaf", "bean curd",
		"dried anchovy", "coconut cream", "sweet soy sauce", "water spinach",
	},
	"southasia": {
		"cumin", "turmeric", "coriander", "garam masala", "ghee", "ginger",
		"green chili", "mustard seed", "curry leaf", "cardamom", "clove",
		"fenugreek", "asafoetida", "basmati rice", "lentil", "chickpea",
		"paneer", "yogurt", "tamarind", "red chili powder", "cinnamon",
		"bay leaf", "fennel seed", "nigella seed", "jaggery", "curd",
		"mustard oil", "poppy seed", "saffron", "rose water",
	},
	"mena": {
		"olive oil", "cumin", "lemon juice", "chickpea", "parsley", "mint",
		"tahini", "sumac", "za'atar", "pomegranate molasses", "bulgur", "couscous",
		"harissa", "preserved lemon", "date", "pistachio", "rose water",
		"cinnamon", "allspice", "dried apricot", "orange blossom water", "lamb",
		"eggplant", "yogurt", "sesame seed", "saffron", "paprika", "coriander",
	},
	"mediterranean": {
		"olive oil", "tomato", "garlic", "basil", "oregano", "lemon",
		"feta cheese", "olives", "red wine vinegar", "parsley", "rosemary",
		"thyme", "capers", "anchovy", "mozzarella", "parmesan cheese",
		"balsamic vinegar", "pine nut", "artichoke", "zucchini", "eggplant",
		"white bean", "prosciutto", "polenta", "risotto rice", "saffron",
	},
	"westeurope": {
		"butter", "cream", "onion", "potato", "carrot", "leek", "thyme",
		"bay leaf", "white wine", "dijon mustard", "parsley", "shallot",
		"celery", "beef stock", "red wine", "nutmeg", "chive", "tarragon",
		"gruyere cheese", "creme fraiche", "brandy", "apple", "cabbage",
		"mushroom", "bacon", "ham", "sour cream", "dill", "horseradish",
	},
	"anglosphere": {
		"butter", "onion", "potato", "cheddar cheese", "bacon", "beef",
		"chicken", "tomato", "carrot", "peas", "corn", "bread crumb",
		"worcestershire sauce", "ketchup", "mayonnaise", "brown sugar",
		"vanilla extract", "baking powder", "baking soda", "oats",
		"maple syrup", "cranberry", "pumpkin", "apple", "raisin", "honey",
	},
	"latam": {
		"onion", "cilantro", "lime", "tomato", "corn tortilla", "black beans",
		"jalapeno", "avocado", "cumin", "rice", "plantain", "queso fresco",
		"chipotle", "tomatillo", "epazote", "achiote", "yuca", "chayote",
		"poblano pepper", "serrano pepper", "masa", "pinto beans", "oregano",
		"coconut", "mango", "papaya", "aji pepper", "quinoa", "sweet potato",
	},
	"africa": {
		"onion", "tomato", "peanut", "okra", "cassava", "plantain", "yam",
		"palm oil", "scotch bonnet pepper", "ginger", "garlic", "millet",
		"sorghum", "baobab", "egusi", "fonio", "berbere", "teff", "injera",
		"collard greens", "sweet potato", "groundnut paste", "dried fish",
		"hibiscus", "tamarind", "maize meal",
	},
	"nordic": {
		"butter", "dill", "potato", "salmon", "herring", "rye bread",
		"lingonberry", "cloudberry", "juniper berry", "caraway seed",
		"cardamom", "sour cream", "beetroot", "cucumber", "mustard",
		"crispbread", "elderflower", "cabbage", "apple", "horseradish",
	},
}

// tail name generators -------------------------------------------------------

var tailDescriptors = []string{
	"smoked", "pickled", "dried", "fermented", "roasted", "candied", "salted",
	"cured", "wild", "heirloom", "stone-ground", "cold-pressed", "aged",
	"spiced", "toasted", "sprouted", "preserved", "sun-dried", "char-grilled",
	"marinated", "whipped", "clarified", "crystallized", "powdered", "young",
}

var tailBases = []string{
	"fish", "root", "berry", "bean", "grain", "pepper", "leaf", "herb",
	"cheese", "sausage", "mushroom", "squash", "melon", "citrus", "nut",
	"seed", "flower", "shoot", "tuber", "greens", "chili", "vinegar",
	"paste", "broth", "noodle", "dumpling", "bread", "cake", "pickle",
	"fruit", "gourd", "cabbage", "onion", "garlic", "radish",
}

var tailOrigins = []string{
	"river", "mountain", "coastal", "valley", "island", "highland",
	"forest", "prairie", "market", "village", "harbor", "garden",
	"orchard", "estate", "monastery", "farmhouse", "spring", "winter",
	"summer", "harvest", "heritage", "old-town", "northern", "southern",
}

// TailIngredientName returns the i-th synthetic long-tail ingredient name.
// Names are deterministic, human-plausible, and unique for i up to
// len(descriptors)*len(origins)*len(bases) (25*24*35 = 21,000), matching
// the 20,280-unique-ingredient scale of Sec. III.
func TailIngredientName(i int) string { return string(appendTailIngredientName(nil, i)) }

func appendTailIngredientName(dst []byte, i int) []byte {
	d := tailDescriptors[i%len(tailDescriptors)]
	rest := i / len(tailDescriptors)
	o := tailOrigins[rest%len(tailOrigins)]
	b := tailBases[(rest/len(tailOrigins))%len(tailBases)]
	dst = append(dst, d...)
	dst = append(dst, ' ')
	dst = append(dst, o...)
	dst = append(dst, ' ')
	dst = append(dst, b...)
	return appendCycle(dst, i/(len(tailDescriptors)*len(tailOrigins)*len(tailBases)))
}

// appendCycle appends " n" to a name from the n-th pass over its
// combinations; names from the first pass carry no number.
func appendCycle(dst []byte, n int) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, ' '), int64(n), 10)
}

var tailProcessStems = []string{
	"blanch", "braise", "glaze", "score", "truss", "baste", "deglaze",
	"render", "temper", "proof", "knead", "fold", "whisk", "sear", "poach",
	"steep", "strain", "reduce", "caramelize", "flambe", "julienne", "mince",
	"zest", "shuck", "fillet", "butterfly", "brine", "smoke", "press", "mash",
}

var tailProcessMods = []string{
	"", "slow-", "flash-", "double-", "dry-", "wet-", "pan-", "oven-",
	"twice-", "gently ", "coarsely ", "finely ",
}

// TailProcessName returns the i-th synthetic long-tail process name
// (30*12 = 360 unique combinations; the corpus uses ~220 beyond the
// universal and regional tables, landing near the paper's 268).
func TailProcessName(i int) string { return string(appendTailProcessName(nil, i)) }

func appendTailProcessName(dst []byte, i int) []byte {
	stem := tailProcessStems[i%len(tailProcessStems)]
	mod := tailProcessMods[(i/len(tailProcessStems))%len(tailProcessMods)]
	dst = append(dst, mod...)
	dst = append(dst, stem...)
	return appendCycle(dst, i/(len(tailProcessStems)*len(tailProcessMods)))
}

var tailUtensilBases = []string{
	"mold", "press", "rack", "sieve", "mortar", "cleaver", "mandoline",
	"thermometer", "scale", "griddle", "steamer", "ricer", "zester",
	"skewer", "ramekin", "terrine", "tagine", "crock", "kettle", "ladle",
	"whisk", "tongs", "peeler", "grater", "funnel", "brush", "timer",
}

var tailUtensilMods = []string{"", "copper ", "cast-iron ", "bamboo ", "stone ", "ceramic "}

// TailUtensilName returns the i-th synthetic long-tail utensil name
// (27*6 = 162 combinations; the corpus uses ~50 beyond the universal and
// regional tables, landing near the paper's 69).
func TailUtensilName(i int) string { return string(appendTailUtensilName(nil, i)) }

func appendTailUtensilName(dst []byte, i int) []byte {
	base := tailUtensilBases[i%len(tailUtensilBases)]
	mod := tailUtensilMods[(i/len(tailUtensilBases))%len(tailUtensilMods)]
	dst = append(dst, mod...)
	dst = append(dst, base...)
	return appendCycle(dst, i/(len(tailUtensilBases)*len(tailUtensilMods)))
}
