// Command tracegen emits the synthetic SPLASH-2-like communication
// traces the evaluation runs on, in the binary or text trace format.
//
// Usage:
//
//	tracegen -app fft -o fft.trc              # binary, paper scale
//	tracegen -app radix -format text -scale 0.1
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"utlb/internal/trace"
	"utlb/internal/workload"
)

func main() {
	var (
		app    = flag.String("app", "", "application name (see -list)")
		out    = flag.String("o", "-", "output file (- = stdout)")
		format = flag.String("format", "binary", "output format: binary or text")
		seed   = flag.Int64("seed", 1998, "random seed")
		scale  = flag.Float64("scale", 1.0, "workload scale factor")
		nodes  = flag.Int("nodes", 1, "number of cluster nodes to generate")
		list   = flag.Bool("list", false, "list application names and exit")
	)
	flag.Parse()

	if *list {
		for _, s := range workload.Specs() {
			fmt.Printf("%-14s %-18s footprint=%d pages, lookups=%d\n",
				s.Name, s.ProblemSize, s.FootprintPages, s.Lookups)
		}
		return
	}
	spec, err := workload.ByName(*app)
	if err != nil {
		fatal(err)
	}
	if err := spec.CheckScale(*scale); err != nil {
		fatal(err)
	}
	tr := spec.GenerateCluster(*nodes, *seed, *scale)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "binary":
		err = trace.WriteBinary(w, tr)
	case "text":
		err = trace.WriteText(w, tr)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %s: %d records, %d pages footprint\n",
		spec.Name, tr.Lookups(), tr.Footprint())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
