// Command kbdd is the course's BDD-based Boolean calculator: it reads
// a script from stdin (or a file argument) and prints the results,
// exactly as the MOOC's kbdd web portal did.
//
// Usage:
//
//	kbdd [script.txt]
//
// See internal/portal.KBDD for the command language.
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
	return portal.RunCLI(portal.KBDDTool(), args, stdin, stdout, stderr)
}
