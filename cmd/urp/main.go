// Command urp is the Project 1 tool: Unate-Recursive-Paradigm
// operations on positional-cube-notation covers. The cover is read
// from stdin, one cube per line in 0/1/- notation.
//
// Usage:
//
//	urp complement            print the complement cover
//	urp tautology             print yes/no
//	urp cofactor <var> <0|1>  print the Shannon cofactor (1-based var)
//	urp count                 print the number of minterms
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vlsicad/internal/cube"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "urp:", err)
		return 1
	}
	usage := func() int {
		fmt.Fprintln(stderr, "usage: urp complement|tautology|count|cofactor <var> <0|1>  (cover on stdin)")
		return 2
	}
	if len(args) < 1 {
		return usage()
	}
	input, err := io.ReadAll(stdin)
	if err != nil {
		return fail(err)
	}
	var rows []string
	for _, line := range strings.Split(string(input), "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	if len(rows) == 0 {
		return fail(fmt.Errorf("empty cover on stdin"))
	}
	f, err := cube.ParseCover(rows)
	if err != nil {
		return fail(err)
	}
	switch args[0] {
	case "complement":
		printCover(stdout, f.Complement())
	case "tautology":
		if f.IsTautology() {
			fmt.Fprintln(stdout, "yes")
		} else {
			fmt.Fprintln(stdout, "no")
		}
	case "cofactor":
		if len(args) != 3 {
			return usage()
		}
		v, err := strconv.Atoi(args[1])
		if err != nil || v < 1 || v > f.N {
			return fail(fmt.Errorf("variable must be 1..%d", f.N))
		}
		phase := args[2] == "1"
		printCover(stdout, f.Cofactor(v-1, phase))
	case "count":
		if f.N > 24 {
			return fail(fmt.Errorf("count limited to 24 variables"))
		}
		fmt.Fprintln(stdout, len(f.Minterms()))
	default:
		return usage()
	}
	return 0
}

func printCover(w io.Writer, f *cube.Cover) {
	if f.IsEmpty() {
		fmt.Fprintln(w, "# empty cover (constant 0)")
		return
	}
	for _, c := range f.Cubes {
		fmt.Fprintln(w, c.Row())
	}
}
