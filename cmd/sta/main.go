// Command sta reads a BLIF network (stdin or file argument), runs the
// full flow through technology mapping, and prints the static timing
// report: arrivals, slacks, the critical path, and a slack histogram.
// With -wire, every gate also gets one uniform wire delay taken at the
// mean routed wirelength (FlowOpts.WireModel).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vlsicad"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wire := fs.Bool("wire", false, "add one uniform RC-line delay, at the mean routed wirelength, to every gate")
	buckets := fs.Int("hist", 5, "slack histogram buckets (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sta:", err)
		return 1
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	flow, err := vlsicad.RunFlow(in, vlsicad.FlowOpts{WireModel: *wire})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "gates=%d area=%.1f\n", len(flow.Mapping.Matches), flow.Area)
	fmt.Fprint(stdout, flow.Timing)
	if *buckets > 0 {
		counts, edges := flow.Timing.SlackHistogram(*buckets)
		fmt.Fprintln(stdout, "slack histogram:")
		for i, c := range counts {
			fmt.Fprintf(stdout, "  [%7.2f, %7.2f) %4d %s\n",
				edges[i], edges[i+1], c, strings.Repeat("#", c))
		}
	}
	return 0
}
