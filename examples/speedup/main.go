// Speedup study: runs fully optimized CCPD at increasing processor counts
// and prints the modelled parallel speed-up (max-per-processor work) next
// to the optimization gains — a miniature of Figs. 8 and 11.
package main

import (
	"context"
	"fmt"
	"log"

	armine "repro"
)

func mineModel(d *armine.Database, procs int, comp, tree, sc bool) int64 {
	opts := armine.ParallelOptions{
		Options: armine.MiningOptions{MinSupport: 0.005, ShortCircuit: sc},
		Procs:   procs, Counter: armine.CounterPrivate,
		AdaptiveMinUnits: 1,
	}
	if comp {
		opts.Balance = armine.BalanceBitonic
	}
	if tree {
		opts.Hash = armine.HashBitonic
	}
	_, stats, err := armine.MineCCPD(context.Background(), d, opts)
	if err != nil {
		log.Fatal(err)
	}
	return stats.ModelTime()
}

func main() {
	d, err := armine.Generate(armine.GenParams{T: 10, I: 6, D: 8000, Seed: 19})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database: %d transactions (T10.I6), 0.5%% support\n\n", d.Len())

	// Optimization gains at 4 processors (Fig. 8 in miniature).
	base := mineModel(d, 4, false, false, false)
	fmt.Println("optimization gains at 4 processors (modelled time vs unoptimized):")
	fmt.Printf("  COMP        %5.1f%%\n", 100*(1-float64(mineModel(d, 4, true, false, false))/float64(base)))
	fmt.Printf("  TREE        %5.1f%%\n", 100*(1-float64(mineModel(d, 4, false, true, false))/float64(base)))
	fmt.Printf("  COMP-TREE   %5.1f%%\n", 100*(1-float64(mineModel(d, 4, true, true, false))/float64(base)))
	fmt.Printf("  +SHORT-CIRC %5.1f%%\n", 100*(1-float64(mineModel(d, 4, true, true, true))/float64(base)))

	// Scaling curve (Fig. 11 in miniature).
	fmt.Println("\nCCPD speed-up (all optimizations, modelled):")
	t1 := mineModel(d, 1, true, true, true)
	for _, procs := range []int{1, 2, 4, 8, 12} {
		tp := mineModel(d, procs, true, true, true)
		fmt.Printf("  P=%-2d  speedup %.2f\n", procs, float64(t1)/float64(tp))
	}
}
