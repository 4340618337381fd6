package main

import (
	"math/rand/v2"
	"net/url"
	"slices"
	"strconv"

	"cuisines/internal/server"
)

// variant is one parameter variant the serve-mixed variant caller
// requests, as a query over the daemon's base options.
type variant struct {
	class string // "seed", "support", "linkage" or "revisit"
	query string // "?..." in canonical (sorted) order
	last  bool   // last variant of its cycle
}

// variantScale is the corpus scale of new-seed variants.
const variantScale = 0.25

// variantSequence returns the first cycles cycles of the serve-mixed
// variant walk. Each cycle issues, in an order the benchmark seed
// shuffles, two new-seed analyses at scale 0.25, one support-only
// variant and one linkage-only variant; every cycle after the first
// ends with a revisit of the variant the 8-entry analysis cache evicted
// last (the cache is simulated with the base analysis pinned, as the
// hit callers keep touching it). New seeds and supports never repeat
// within a run, so those requests always compute: whole cycles hold
// three computing requests to at most two cheap ones, which keeps the
// median among the computing ones.
func variantSequence(benchSeed, corpusSeed uint64, cycles int) []variant {
	rng := rand.New(rand.NewPCG(benchSeed, 0x76617269616e74))
	order := append([]string(nil), linkages...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	lru := []string{} // most recently used first, base excluded
	var evicted []string
	touch := func(q string) {
		for i, k := range lru {
			if k == q {
				lru = append(lru[:i], lru[i+1:]...)
				break
			}
		}
		lru = append([]string{q}, lru...)
		if len(lru) > server.DefaultCacheSize-1 {
			evicted = append(evicted, lru[len(lru)-1])
			lru = lru[:len(lru)-1]
		}
	}
	var seq []variant
	for k := 0; k < cycles; k++ {
		cycle := []variant{
			{class: "support", query: encode(url.Values{"support": {strconv.FormatFloat(0.22+0.01*float64(k), 'f', 2, 64)}})},
			{class: "linkage", query: encode(url.Values{"linkage": {order[k%len(order)]}})},
		}
		for j := uint64(0); j < 2; j++ {
			cycle = append(cycle, variant{class: "seed", query: encode(url.Values{
				"seed":  {strconv.FormatUint(corpusSeed+1000+2*uint64(k)+j, 10)},
				"scale": {strconv.FormatFloat(variantScale, 'g', -1, 64)},
			})})
		}
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, v := range cycle {
			touch(v.query)
		}
		seq = append(seq, cycle...)
		for i := len(evicted) - 1; k > 0 && i >= 0; i-- {
			if q := evicted[i]; !slices.Contains(lru, q) {
				seq = append(seq, variant{class: "revisit", query: q})
				touch(q)
				break
			}
		}
		seq[len(seq)-1].last = true
	}
	return seq
}

func encode(v url.Values) string { return "?" + v.Encode() }
