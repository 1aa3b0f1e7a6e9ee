// Command vlsicad runs the complete logic-to-layout flow on a BLIF
// network (stdin or file argument): synthesis, formal verification,
// technology mapping, placement, routing and static timing, printing
// a one-screen summary.
//
// Telemetry: -stats appends the per-stage timing table and the
// metrics/span snapshot; -json replaces the summary with a
// machine-readable snapshot (flow results + full telemetry). With
// -drc, design-rule violations make the exit code nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"vlsicad"
	"vlsicad/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vlsicad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wire := fs.Bool("wire", false, "add one uniform RC-line delay, at the mean routed wirelength, to every gate")
	checkDRC := fs.Bool("drc", false, "design-rule-check the routed wires (violations exit nonzero)")
	seed := fs.Int64("seed", 1, "seed for randomized stages")
	workers := fs.Int("workers", 0, "placement workers (0 = GOMAXPROCS, 1 = serial; result is identical either way)")
	annealPlace := fs.Bool("anneal-place", false, "refine the legalized placement with parallel simulated annealing")
	stats := fs.Bool("stats", false, "print the per-stage timing table and telemetry snapshot")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON snapshot instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "vlsicad:", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	ob := obs.NewObserver(nil)
	flow, err := vlsicad.RunFlow(in, vlsicad.FlowOpts{
		WireModel: *wire, Seed: *seed, CheckDRC: *checkDRC, Obs: ob,
		AnnealPlace: *annealPlace, PlaceWorkers: *workers,
	})
	if err != nil {
		fmt.Fprintln(stderr, "vlsicad:", err)
		return 1
	}

	if *jsonOut {
		out := struct {
			Model          string                `json:"model"`
			LiteralsBefore int                   `json:"literals_before"`
			LiteralsAfter  int                   `json:"literals_after"`
			Equivalent     bool                  `json:"equivalent"`
			Gates          int                   `json:"gates"`
			Area           float64               `json:"area"`
			HPWL           float64               `json:"hpwl"`
			RoutedNets     int                   `json:"routed_nets"`
			TotalNets      int                   `json:"total_nets"`
			WireLength     int                   `json:"wirelength"`
			Vias           int                   `json:"vias"`
			DRCViolations  int                   `json:"drc_violations"`
			CriticalDelay  float64               `json:"critical_delay"`
			CriticalPath   []string              `json:"critical_path,omitempty"`
			Stages         []vlsicad.StageTiming `json:"stages"`
			Telemetry      obs.Snapshot          `json:"telemetry"`
		}{
			Model:          flow.Source.Name,
			LiteralsBefore: flow.LiteralsBefore,
			LiteralsAfter:  flow.LiteralsAfter,
			Equivalent:     flow.Equivalent,
			Gates:          len(flow.Mapping.Matches),
			Area:           flow.Area,
			HPWL:           flow.HPWL,
			RoutedNets:     len(flow.Routing.Paths),
			TotalNets:      len(flow.Nets),
			WireLength:     flow.WireLength,
			Vias:           flow.Vias,
			DRCViolations:  len(flow.DRC),
			CriticalDelay:  flow.CriticalDelay,
			CriticalPath:   flow.Timing.CriticalPath,
			Stages:         flow.Stages,
			Telemetry:      ob.Snapshot(),
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "vlsicad:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprintf(stdout, "model          : %s\n", flow.Source.Name)
		fmt.Fprintf(stdout, "synthesis      : %d -> %d SOP literals (verified equivalent: %v)\n",
			flow.LiteralsBefore, flow.LiteralsAfter, flow.Equivalent)
		fmt.Fprintf(stdout, "mapping        : %d gates, area %.1f\n", len(flow.Mapping.Matches), flow.Area)
		fmt.Fprintf(stdout, "placement      : %d cells on %gx%g, HPWL %.1f\n",
			flow.PlaceProblem.NCells, flow.PlaceProblem.W, flow.PlaceProblem.H, flow.HPWL)
		fmt.Fprintf(stdout, "routing        : %d/%d nets, wirelength %d, vias %d\n",
			len(flow.Routing.Paths), len(flow.Nets), flow.WireLength, flow.Vias)
		if *checkDRC {
			fmt.Fprintf(stdout, "drc            : %d violations\n", len(flow.DRC))
			for i, v := range flow.DRC {
				if i >= 5 {
					fmt.Fprintln(stdout, "  ...")
					break
				}
				fmt.Fprintf(stdout, "  %s\n", v)
			}
		}
		fmt.Fprintf(stdout, "timing         : critical delay %.2f\n", flow.CriticalDelay)
		fmt.Fprintf(stdout, "critical path  : %v\n", flow.Timing.CriticalPath)
		if *stats {
			fmt.Fprintf(stdout, "\n=== stage timings ===\n%s", flow.StageTable())
			fmt.Fprintln(stdout, "\n=== telemetry ===")
			ob.Snapshot().WriteText(stdout)
		}
	}
	if *checkDRC && len(flow.DRC) > 0 {
		fmt.Fprintf(stderr, "vlsicad: %d DRC violations\n", len(flow.DRC))
		return 3
	}
	return 0
}
