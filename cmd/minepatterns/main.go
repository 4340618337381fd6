// Command minepatterns regenerates Table I of the paper: per-cuisine
// frequent patterns mined at the chosen support, headline patterns
// ranked by the documented significance score, and per-cuisine pattern
// counts.
//
// Usage:
//
//	minepatterns [-support 0.2] [-scale 1.0] [-seed 20200426] [-top 3] [-paper]
//
// -paper appends the paper's published values next to the measured ones.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"cuisines/internal/core"
	"cuisines/internal/corpus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("minepatterns: ")
	var (
		support = flag.Float64("support", core.DefaultMinSupport, "minimum relative support")
		scale   = flag.Float64("scale", 1.0, "corpus scale (fraction of the 118k full corpus)")
		seed    = flag.Uint64("seed", corpus.DefaultSeed, "corpus generator seed")
		topK    = flag.Int("top", 3, "headline patterns per cuisine")
		paper   = flag.Bool("paper", false, "append the paper's Table I values for comparison")
		workers = flag.Int("workers", 0, "worker pool size (0 = all cores, 1 = sequential; output is identical)")
	)
	flag.Parse()

	db, err := corpus.Generate(corpus.Config{Seed: *seed, Scale: *scale, Workers: *workers})
	if err != nil {
		log.Fatal(err)
	}
	t, err := core.BuildTable1Workers(db, *support, *topK, *workers)
	if err != nil {
		log.Fatal(err)
	}
	if !*paper {
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Region\tRecipes\tMeasured top\tSupp\t#Pat\tPaper top\tSupp\t#Pat\n")
	for _, row := range t.Rows {
		prof, err := corpus.ProfileFor(row.Region)
		if err != nil {
			log.Fatal(err)
		}
		top, sup := "-", "-"
		if len(row.Top) > 0 {
			top = row.Top[0].Pattern.Items.String()
			sup = fmt.Sprintf("%.2f", row.Top[0].Pattern.Support)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t%s\t%.2f\t%d\n",
			row.Region, row.Recipes, top, sup, row.Patterns,
			prof.IntendedTop[0], prof.PaperSupport, prof.PaperPatternCount)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
}
