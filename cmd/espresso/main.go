// Command espresso minimizes a two-level PLA read from stdin (or a
// file argument) and writes the minimized PLA to stdout, with per-
// output statistics as comments — the MOOC's Espresso portal.
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
	return portal.RunCLI(portal.EspressoTool(), args, stdin, stdout, stderr)
}
