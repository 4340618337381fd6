// Package core wires the substrates into the paper's experiments: the
// per-cuisine pattern miner and significance ranking behind Table I, the
// pattern / authenticity / geographic feature pipelines behind Figs. 1-6,
// and the quantified Sec. VII validation. The root cuisines package is a
// thin facade over this one.
package core

import (
	"fmt"

	"cuisines/internal/itemset"
	"cuisines/internal/miner"
	"cuisines/internal/parallel"
	"cuisines/internal/recipedb"
)

// DefaultMinSupport is the paper's mining threshold (Sec. IV: "a trade
// off support of 20% was chosen").
const DefaultMinSupport = 0.2

// RegionPatterns holds one cuisine's mining result.
type RegionPatterns struct {
	Region  string
	Recipes int
	// Patterns is every frequent itemset at the mining threshold, in
	// canonical report order.
	Patterns []itemset.Pattern
}

// MineRegions mines frequent itemsets per cuisine at the given support
// threshold, exactly as Sec. V.A prescribes (ingredients, processes and
// utensils concatenated; one run per region), with the default backend.
// Regions are returned in the DB's sorted region order. The per-region
// runs use every available core; see MineRegionsWorkers for the knob.
func MineRegions(db *recipedb.DB, minSupport float64) ([]RegionPatterns, error) {
	return MineRegionsWorkers(db, minSupport, 0)
}

// MineRegionsWorkers is MineRegions with an explicit worker count (<= 0
// means GOMAXPROCS, 1 forces the sequential path). The per-cuisine runs
// are independent — each reads the immutable DB and returns its own
// result slot, and every backend emits patterns in canonical report
// order — so the output is identical to the sequential path for any
// worker count.
func MineRegionsWorkers(db *recipedb.DB, minSupport float64, workers int) ([]RegionPatterns, error) {
	return MineRegionsWith(db, minSupport, workers, nil)
}

// MineRegionsWith is MineRegionsWorkers with an explicit mining backend
// (nil means miner.Default), over a column view built for this call.
func MineRegionsWith(db *recipedb.DB, minSupport float64, workers int, m miner.Miner) ([]RegionPatterns, error) {
	return MineColumns(db.Columns(), minSupport, workers, m)
}

// MineColumns is MineRegionsWith over a prebuilt column view, so a run
// that also needs the view elsewhere (authenticity) builds it once.
// Each region's transactions are indexed into the shared vertical
// bitset representation exactly once, then handed to the backend. All
// backends produce byte-identical pattern sets (see internal/miner), so
// — like workers — the backend changes how fast the answer arrives,
// never the answer.
func MineColumns(cols *recipedb.Columns, minSupport float64, workers int, m miner.Miner) ([]RegionPatterns, error) {
	db := cols.DB()
	if db.Len() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if !(minSupport > 0 && minSupport <= 1) {
		return nil, fmt.Errorf("core: min support %v out of (0, 1]", minSupport)
	}
	if m == nil {
		m = miner.Default
	}
	regions := db.Regions()
	out := parallel.Map(len(regions), workers, func(i int) RegionPatterns {
		recipes := db.RegionIndexes(regions[i])
		return RegionPatterns{
			Region:   regions[i],
			Recipes:  len(recipes),
			Patterns: m.Mine(regionIndex(cols, recipes), minSupport),
		}
	})
	return out, nil
}

// regionIndex builds the vertical index of the given recipes straight
// from their column ids. Region-local ids are assigned in table order,
// so they stay canonical without a map or a sort.
func regionIndex(cols *recipedb.Columns, recipes []int) *itemset.Index {
	table := cols.Items()
	local := make([]int32, len(table)) // table id -> count, then local id
	total := 0
	for _, j := range recipes {
		ids := cols.Recipe(j)
		for _, id := range ids {
			local[id]++
		}
		total += len(ids)
	}
	var items []itemset.Item
	for id, c := range local {
		if c > 0 {
			local[id] = int32(len(items))
			items = append(items, table[id])
		}
	}
	arena := make([]int32, total)
	txns := make([][]int32, len(recipes))
	for t, j := range recipes {
		ids := cols.Recipe(j)
		dst := arena[:len(ids):len(ids)]
		arena = arena[len(ids):]
		for k, id := range ids {
			dst[k] = local[id]
		}
		txns[t] = dst
	}
	return itemset.NewIndexIDs(items, txns)
}

// PatternSets flattens mining results into parallel slices for the
// encoder.
func PatternSets(rps []RegionPatterns) (regions []string, patterns [][]itemset.Pattern) {
	for _, rp := range rps {
		regions = append(regions, rp.Region)
		patterns = append(patterns, rp.Patterns)
	}
	return regions, patterns
}
