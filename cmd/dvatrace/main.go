// Command dvatrace generates, inspects and validates the synthetic
// instruction traces that stand in for the paper's Dixie traces.
//
// Usage:
//
//	dvatrace -prog TRFD            # print Table 1 statistics for one model
//	dvatrace -prog TRFD -dump 40   # additionally dump the first N instructions
//	dvatrace -all                  # statistics for every model
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"decvec"
)

func main() {
	var (
		prog  = flag.String("prog", "", "program model: "+strings.Join(decvec.Workloads(), ","))
		all   = flag.Bool("all", false, "print statistics for all thirteen models")
		dump  = flag.Int("dump", 0, "dump the first N trace instructions")
		scale = flag.Float64("scale", 1.0, "trace scale factor")
		out   = flag.String("o", "", "write the trace to this file in binary format")
	)
	flag.Parse()

	names := []string{}
	switch {
	case *all:
		names = decvec.Workloads()
	case *prog != "":
		names = []string{*prog}
	default:
		fmt.Fprintln(os.Stderr, "dvatrace: need -prog NAME or -all")
		os.Exit(2)
	}

	for _, n := range names {
		w, err := decvec.LoadWorkload(n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvatrace: %v\n", err)
			os.Exit(1)
		}
		src := w.Trace(*scale)
		st := w.Stats()
		fmt.Printf("%-8s %s\n", w.Name(), w.Description())
		fmt.Printf("  bbs=%d scalarInsts=%d vectorInsts=%d vectorOps=%d\n",
			st.BasicBlocks, st.ScalarInsts, st.VectorInsts, st.VectorOps)
		fmt.Printf("  vectorization=%.1f%% avgVL=%.1f spill=%.1f%% of memory ops\n",
			100*st.Vectorization(), st.AvgVL(), 100*st.SpillFraction())
		if *dump > 0 {
			for i := range src.Insts[:min(*dump, src.Len())] {
				fmt.Printf("    %s\n", &src.Insts[i])
			}
		}
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dvatrace: %v\n", err)
				os.Exit(1)
			}
			if err := decvec.WriteTrace(f, src); err != nil {
				fmt.Fprintf(os.Stderr, "dvatrace: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "dvatrace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  wrote %s\n", *out)
		}
	}
}
