// Command dvatrace generates, inspects and validates the synthetic
// instruction traces that stand in for the paper's Dixie traces.
//
// Usage:
//
//	dvatrace -prog TRFD            # print Table 1 statistics for one model
//	dvatrace -prog TRFD -dump 40   # additionally dump the first N instructions
//	dvatrace -all                  # statistics for every model
//	dvatrace -prog TRFD -scale 0.25 -o trfd.trace   # write a scaled trace
//
// The statistics printed are those of the trace at -scale, the one dumped
// and written.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"decvec"
	"decvec/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvatrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		prog  = fs.String("prog", "", "program model: "+strings.Join(decvec.Workloads(), ","))
		all   = fs.Bool("all", false, "print statistics for all thirteen models")
		dump  = fs.Int("dump", 0, "dump the first N trace instructions")
		scale = fs.Float64("scale", 1.0, "trace scale factor")
		out   = fs.String("o", "", "write the trace to this file in binary format")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	var names []string
	err := decvec.CheckScale(*scale)
	switch {
	case err != nil:
	case *dump < 0:
		err = fmt.Errorf("-dump must be >= 0, got %d", *dump)
	case *all && *out != "":
		err = errors.New("-all writes thirteen traces; -o takes one (use -prog)")
	case *all:
		names = decvec.Workloads()
	case *prog != "":
		names = []string{*prog}
	default:
		err = errors.New("need -prog NAME or -all")
	}
	if err != nil {
		fmt.Fprintf(stderr, "dvatrace: %v\n", err)
		return 2
	}

	for _, n := range names {
		if err := inspect(stdout, n, *scale, *dump, *out); err != nil {
			fmt.Fprintf(stderr, "dvatrace: %v\n", err)
			return 1
		}
	}
	return 0
}

// inspect prints the statistics of program n's trace at scale, dumps its
// first dump instructions and writes it to out when out is set.
func inspect(stdout io.Writer, n string, scale float64, dump int, out string) error {
	w, err := decvec.LoadWorkload(n)
	if err != nil {
		return err
	}
	src := w.Trace(scale)
	st := trace.Collect(src)
	fmt.Fprintf(stdout, "%-8s %s\n", w.Name(), w.Description())
	fmt.Fprintf(stdout, "  bbs=%d scalarInsts=%d vectorInsts=%d vectorOps=%d\n",
		st.BasicBlocks, st.ScalarInsts, st.VectorInsts, st.VectorOps)
	fmt.Fprintf(stdout, "  vectorization=%.1f%% avgVL=%.1f spill=%.1f%% of memory ops\n",
		100*st.Vectorization(), st.AvgVL(), 100*st.SpillFraction())
	for i := range src.Insts[:min(dump, src.Len())] {
		fmt.Fprintf(stdout, "    %s\n", &src.Insts[i])
	}
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := decvec.WriteTrace(f, src); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  wrote %s\n", out)
	return nil
}
