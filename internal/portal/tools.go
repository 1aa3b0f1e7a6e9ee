package portal

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vlsicad/internal/espresso"
	"vlsicad/internal/linsolve"
	"vlsicad/internal/mls"
	"vlsicad/internal/netlist"
	"vlsicad/internal/sat"
)

// The five tools the paper deployed in the cloud (Figure 4): kbdd,
// miniSAT, Espresso, SIS and the Ax=b solver, all as text-in/text-out
// portals.

type toolFunc struct {
	name string
	desc string
	run  func(input string, cancel <-chan struct{}) (string, error)
}

func (t toolFunc) Name() string     { return t.name }
func (t toolFunc) Describe() string { return t.desc }
func (t toolFunc) Run(input string, cancel <-chan struct{}) (string, error) {
	return t.run(input, cancel)
}

// RunCLI is the command-line shell of a portal tool: it reads the
// file named by the first argument (stdin when there is none), runs t
// on it and prints the output. On error it prints "<name>: <err>" to
// stderr and returns exit code 1.
func RunCLI(t Tool, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	var src []byte
	var err error
	if len(args) > 0 {
		src, err = os.ReadFile(args[0])
	} else {
		src, err = io.ReadAll(stdin)
	}
	if err == nil {
		var out string
		out, err = t.Run(string(src), nil)
		fmt.Fprint(stdout, out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", t.Name(), err)
		return 1
	}
	return 0
}

// KBDDTool wraps the scripting BDD calculator.
func KBDDTool() Tool {
	return toolFunc{
		name: "kbdd",
		desc: "BDD-based Boolean calculator with scripting (CMU kbdd workflow)",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			k := NewKBDD(64)
			err := k.RunScript(input)
			return k.Output(), err
		},
	}
}

// EspressoTool minimizes a PLA file.
func EspressoTool() Tool {
	return toolFunc{
		name: "espresso",
		desc: "two-level logic minimizer (Berkeley Espresso workflow, PLA in/out)",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			p, err := espresso.ParsePLA(strings.NewReader(input))
			if err != nil {
				return "", err
			}
			min, stats := p.Minimize()
			var out strings.Builder
			for o, st := range stats {
				fmt.Fprintf(&out, "# %s: %d -> %d cubes, %d -> %d literals (%d iterations)\n",
					p.OutNames[o], st.InitialCubes, st.FinalCubes,
					st.InitialLits, st.FinalLits, st.Iterations)
			}
			if err := espresso.WritePLA(&out, min); err != nil {
				return "", err
			}
			return out.String(), nil
		},
	}
}

// MiniSATTool solves a DIMACS CNF instance.
func MiniSATTool() Tool {
	return toolFunc{
		name: "minisat",
		desc: "CDCL Boolean satisfiability solver (DIMACS CNF in)",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			s, nvars, err := sat.ParseDIMACS(strings.NewReader(input))
			if err != nil {
				return "", err
			}
			status := s.Solve()
			var out strings.Builder
			fmt.Fprintf(&out, "s %s\n", status)
			if status == sat.Sat {
				model := s.Model()
				out.WriteString("v ")
				for v := 0; v < nvars; v++ {
					if model[v] {
						fmt.Fprintf(&out, "%d ", v+1)
					} else {
						fmt.Fprintf(&out, "-%d ", v+1)
					}
				}
				out.WriteString("0\n")
			}
			st := s.Stats()
			fmt.Fprintf(&out, "c decisions=%d propagations=%d conflicts=%d learned=%d restarts=%d\n",
				st.Decisions, st.Propagations, st.Conflicts, st.Learned, st.Restarts)
			return out.String(), nil
		},
	}
}

// SISTool runs a synthesis script on a BLIF network. Input format:
// the BLIF text through ".end", then one script command per line
// (print_stats, sweep, simplify, full_simplify, eliminate N, fx,
// decomp, factor, print). The minimized network is appended as BLIF.
func SISTool() Tool {
	return toolFunc{
		name: "sis",
		desc: "multi-level logic optimization shell (SIS workflow, BLIF + script)",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			idx := strings.Index(input, ".end")
			if idx < 0 {
				return "", fmt.Errorf("input must contain a BLIF model ending in .end")
			}
			blif := input[:idx+len(".end")]
			script := input[idx+len(".end"):]
			nw, err := netlist.ParseBLIF(strings.NewReader(blif))
			if err != nil {
				return "", err
			}
			var out strings.Builder
			sess := mls.NewSession(nw, &out)
			if err := sess.RunScript(script); err != nil {
				return out.String(), err
			}
			out.WriteString("# resulting network\n")
			if err := netlist.WriteBLIF(&out, nw); err != nil {
				return out.String(), err
			}
			return out.String(), nil
		},
	}
}

// AxbTool solves a linear system. Input format: first line
// "n [cg|gs|jacobi|dense]", then n rows of n coefficients, then one
// row of n right-hand-side values. Whitespace separated.
func AxbTool() Tool {
	return toolFunc{
		name: "axb",
		desc: "linear system solver for quadratic placement homeworks",
		run: func(input string, cancel <-chan struct{}) (string, error) {
			fields := strings.Fields(input)
			if len(fields) == 0 {
				return "", fmt.Errorf("empty input")
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil || n <= 0 {
				return "", fmt.Errorf("bad dimension %q", fields[0])
			}
			pos := 1
			method := "dense"
			if pos < len(fields) {
				if _, err := strconv.ParseFloat(fields[pos], 64); err != nil {
					method = fields[pos]
					pos++
				}
			}
			need := n*n + n
			if len(fields)-pos != need {
				return "", fmt.Errorf("need %d numbers after the header, got %d", need, len(fields)-pos)
			}
			nums := make([]float64, need)
			for i := range nums {
				v, err := strconv.ParseFloat(fields[pos+i], 64)
				if err != nil {
					return "", fmt.Errorf("bad number %q", fields[pos+i])
				}
				nums[i] = v
			}
			b := nums[n*n:]
			var x []float64
			var note string
			switch method {
			case "dense":
				a := make([][]float64, n)
				for i := range a {
					a[i] = append([]float64(nil), nums[i*n:(i+1)*n]...)
				}
				x, err = linsolve.SolveDense(a, b)
				if err != nil {
					return "", err
				}
				note = "gaussian elimination"
			case "cg", "gs", "jacobi":
				sp := linsolve.NewSparse(n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if v := nums[i*n+j]; v != 0 {
							sp.Add(i, j, v)
						}
					}
				}
				// Route through the Into forms: one solution buffer,
				// iterative scratch comes from the solver pool.
				x = make([]float64, n)
				var res linsolve.Result
				switch method {
				case "cg":
					res = linsolve.CGInto(x, sp, b, 1e-10, 10*n+1000)
				case "gs":
					res = linsolve.GaussSeidelInto(x, sp, b, 1e-10, 100000)
				default:
					res = linsolve.JacobiInto(x, sp, b, 1e-10, 100000)
				}
				if !res.Converged {
					return "", fmt.Errorf("%s did not converge (residual %g)", method, res.Residual)
				}
				note = fmt.Sprintf("%s, %d iterations", method, res.Iterations)
			default:
				return "", fmt.Errorf("unknown method %q", method)
			}
			var out strings.Builder
			fmt.Fprintf(&out, "# solved %dx%d by %s\n", n, n, note)
			for i, v := range x {
				fmt.Fprintf(&out, "x%d = %.9g\n", i+1, v)
			}
			return out.String(), nil
		},
	}
}

// Registrar is anything that hosts tools: a Pool, or a harness that
// collects the tools to build its own pools.
type Registrar interface {
	Register(Tool) error
}

// CourseTools registers the paper's five tool portals on r.
func CourseTools(p Registrar) error {
	for _, t := range []Tool{KBDDTool(), EspressoTool(), MiniSATTool(), SISTool(), AxbTool()} {
		if err := p.Register(t); err != nil {
			return err
		}
	}
	return nil
}
