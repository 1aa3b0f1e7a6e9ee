// Command axb solves a linear system Ax=b for the quadratic-placement
// homeworks. Input (stdin or file argument): a header line
// "n [dense|cg|gs|jacobi]", then n rows of n coefficients, then the n
// right-hand-side values.
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
	return portal.RunCLI(portal.AxbTool(), args, stdin, stdout, stderr)
}
