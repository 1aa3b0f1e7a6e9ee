// Command minisat solves a DIMACS CNF instance from stdin (or a file
// argument), printing the verdict, a model when satisfiable, and
// solver statistics — the MOOC's miniSAT portal.
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
	return portal.RunCLI(portal.MiniSATTool(), args, stdin, stdout, stderr)
}
