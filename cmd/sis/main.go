// Command sis runs the multi-level synthesis shell on a BLIF network:
// the input (stdin or a file argument) is the BLIF model followed by
// script commands (print_stats, sweep, simplify, full_simplify,
// eliminate N, fx, decomp, factor, print), one per line. The resulting
// network is printed as BLIF — the MOOC's SIS portal.
package main

import (
	"io"
	"os"

	"vlsicad/internal/portal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	return portal.RunCLI(portal.SISTool(), args, stdin, stdout, stderr)
}
