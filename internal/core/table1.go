package core

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"cuisines/internal/recipedb"
)

// Table1Row is one Table I line: a region, its size, its headline
// patterns and its frequent-pattern count.
type Table1Row struct {
	Region   string
	Recipes  int
	Top      []ScoredPattern
	Patterns int
}

// Table1 is the full reproduction of Table I.
type Table1 struct {
	MinSupport float64
	Rows       []Table1Row
}

// BuildTable1 mines every region and ranks headline patterns, producing
// the repository's reproduction of Table I. topK controls how many
// headline patterns are kept per region (the paper prints one to four).
// Mining uses every available core; see BuildTable1Workers for the knob.
func BuildTable1(db *recipedb.DB, minSupport float64, topK int) (*Table1, error) {
	return BuildTable1Workers(db, minSupport, topK, 0)
}

// BuildTable1Workers is BuildTable1 with an explicit worker count for the
// per-cuisine mining fan-out (<= 0 means GOMAXPROCS, 1 forces the
// sequential path).
func BuildTable1Workers(db *recipedb.DB, minSupport float64, topK, workers int) (*Table1, error) {
	if topK <= 0 {
		topK = 3
	}
	rps, err := MineRegionsWorkers(db, minSupport, workers)
	if err != nil {
		return nil, err
	}
	ranker := NewRanker(rps, 0)
	t := &Table1{MinSupport: minSupport}
	for _, rp := range rps {
		t.Rows = append(t.Rows, Table1Row{
			Region:   rp.Region,
			Recipes:  rp.Recipes,
			Top:      ranker.Top(rp.Patterns, topK),
			Patterns: len(rp.Patterns),
		})
	}
	return t, nil
}

// Render writes the table in the paper's column layout.
func (t *Table1) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Region\tRecipes\tPattern\tSupport\tPatterns\n")
	for _, row := range t.Rows {
		top := "-"
		sup := "-"
		if len(row.Top) > 0 {
			top = row.Top[0].Pattern.Items.String()
			sup = fmt.Sprintf("%.2f", row.Top[0].Pattern.Support)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\n", row.Region, row.Recipes, top, sup, row.Patterns)
		for _, extra := range row.Top[min(1, len(row.Top)):] {
			fmt.Fprintf(tw, "\t\t%s\t%.2f\t\n", extra.Pattern.Items.String(), extra.Pattern.Support)
		}
	}
	return tw.Flush()
}

// String renders the table to a string.
func (t *Table1) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
