package portal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vlsicad/internal/bdd"
)

// KBDD is the scripting Boolean calculator of the course's kbdd
// portal: declare variables, build functions from expressions, and
// query them (print, satcount, quantify, cofactor, compose,
// equality) — the workflows of Week 2 and software Project 2.
type KBDD struct {
	m   *bdd.Manager
	env *bdd.Env
	out strings.Builder
}

// NewKBDD creates a session with capacity for maxVars variables.
func NewKBDD(maxVars int) *KBDD {
	m := bdd.New(maxVars)
	return &KBDD{m: m, env: bdd.NewEnv(m)}
}

// Output returns everything the session printed.
func (k *KBDD) Output() string { return k.out.String() }

func (k *KBDD) lookup(name string) (bdd.Node, error) {
	if n, ok := k.env.Defined(name); ok {
		return n, nil
	}
	if v, ok := k.env.Names()[name]; ok {
		return k.m.Var(v), nil
	}
	return bdd.FalseNode, fmt.Errorf("unknown function %q", name)
}

// declared counts the variables the script has introduced; satcount
// is reported over this space rather than the manager's full capacity.
func (k *KBDD) declared() int { return len(k.env.Names()) }

func (k *KBDD) varIndex(name string) (int, error) {
	if v, ok := k.env.Names()[name]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown variable %q", name)
}

// Exec runs one command line.
//
//	var <names...>                declare variables (in BDD order)
//	<f> = <expr>                  build a function
//	print <f>                     sum-of-cubes form
//	nodes <f>                     BDD node count
//	satcount <f>                  number of satisfying assignments
//	anysat <f>                    one satisfying assignment
//	tautology <f> | equal <f> <g>
//	support <f> | order | size
//	exists <dst> <f> <vars...>    quantification
//	forall <dst> <f> <vars...>
//	restrict <dst> <f> <var> 0|1  Shannon cofactor
//	compose <dst> <f> <var> <g>   substitution
//	bdiff <dst> <f> <var>         Boolean difference
//	dot <f>                       Graphviz rendering of the diagram
//	sift <f>                      search for a better variable order
func (k *KBDD) Exec(line string) error {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	fields := strings.Fields(line)
	// Assignment form: name = expr.
	if len(fields) >= 2 && fields[1] == "=" {
		name := fields[0]
		expr := strings.TrimSpace(strings.SplitN(line, "=", 2)[1])
		n, err := bdd.Parse(k.env, expr)
		if err != nil {
			return err
		}
		k.env.Define(name, n)
		k.m.Protect(n)
		fmt.Fprintf(&k.out, "%s = %s\n", name, k.m.Format(n))
		return nil
	}
	switch fields[0] {
	case "var":
		for _, name := range fields[1:] {
			if _, err := k.env.VarIndex(name); err != nil {
				return err
			}
		}
		fmt.Fprintf(&k.out, "declared %d variable(s)\n", len(fields)-1)
	case "print", "p":
		n, err := k.lookup(arg(fields, 1))
		if err != nil {
			return err
		}
		fmt.Fprintf(&k.out, "%s = %s\n", fields[1], k.m.Format(n))
	case "nodes":
		n, err := k.lookup(arg(fields, 1))
		if err != nil {
			return err
		}
		fmt.Fprintf(&k.out, "nodes(%s) = %d\n", fields[1], k.m.NodeCount(n))
	case "size":
		fmt.Fprintf(&k.out, "manager size = %d nodes\n", k.m.Size())
	case "satcount":
		n, err := k.lookup(arg(fields, 1))
		if err != nil {
			return err
		}
		scale := 1.0
		for i := k.declared(); i < k.m.NVars(); i++ {
			scale /= 2
		}
		fmt.Fprintf(&k.out, "satcount(%s) = %.0f\n", fields[1], k.m.SatCount(n)*scale)
	case "anysat":
		n, err := k.lookup(arg(fields, 1))
		if err != nil {
			return err
		}
		assign, ok := k.m.AnySat(n)
		if !ok {
			fmt.Fprintf(&k.out, "%s is unsatisfiable\n", fields[1])
			return nil
		}
		var parts []string
		for v, val := range assign {
			if val >= 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", k.m.Name(v), val))
			}
		}
		fmt.Fprintf(&k.out, "%s: %s\n", fields[1], strings.Join(parts, " "))
	case "tautology":
		n, err := k.lookup(arg(fields, 1))
		if err != nil {
			return err
		}
		fmt.Fprintf(&k.out, "tautology(%s) = %v\n", fields[1], n == bdd.TrueNode)
	case "equal":
		if len(fields) < 3 {
			return fmt.Errorf("equal needs two functions")
		}
		a, err := k.lookup(fields[1])
		if err != nil {
			return err
		}
		b, err := k.lookup(fields[2])
		if err != nil {
			return err
		}
		fmt.Fprintf(&k.out, "equal(%s,%s) = %v\n", fields[1], fields[2], a == b)
	case "support":
		n, err := k.lookup(arg(fields, 1))
		if err != nil {
			return err
		}
		var names []string
		for _, v := range k.m.Support(n) {
			names = append(names, k.m.Name(v))
		}
		fmt.Fprintf(&k.out, "support(%s) = {%s}\n", fields[1], strings.Join(names, " "))
	case "order":
		var names []string
		inv := map[int]string{}
		for name, v := range k.env.Names() {
			inv[v] = name
		}
		var used []int
		for v := range inv {
			used = append(used, v)
		}
		sort.Ints(used)
		for _, v := range used {
			names = append(names, inv[v])
		}
		fmt.Fprintf(&k.out, "order: %s\n", strings.Join(names, " < "))
	case "exists", "forall":
		if len(fields) < 4 {
			return fmt.Errorf("%s needs dst, src and variables", fields[0])
		}
		src, err := k.lookup(fields[2])
		if err != nil {
			return err
		}
		var vars []int
		for _, vn := range fields[3:] {
			v, err := k.varIndex(vn)
			if err != nil {
				return err
			}
			vars = append(vars, v)
		}
		var r bdd.Node
		if fields[0] == "exists" {
			r = k.m.Exists(src, vars...)
		} else {
			r = k.m.ForAll(src, vars...)
		}
		k.env.Define(fields[1], r)
		k.m.Protect(r)
		fmt.Fprintf(&k.out, "%s = %s\n", fields[1], k.m.Format(r))
	case "restrict":
		if len(fields) != 5 {
			return fmt.Errorf("restrict <dst> <f> <var> 0|1")
		}
		src, err := k.lookup(fields[2])
		if err != nil {
			return err
		}
		v, err := k.varIndex(fields[3])
		if err != nil {
			return err
		}
		val, err := strconv.Atoi(fields[4])
		if err != nil || (val != 0 && val != 1) {
			return fmt.Errorf("restrict value must be 0 or 1")
		}
		r := k.m.Restrict(src, v, val == 1)
		k.env.Define(fields[1], r)
		k.m.Protect(r)
		fmt.Fprintf(&k.out, "%s = %s\n", fields[1], k.m.Format(r))
	case "compose":
		if len(fields) != 5 {
			return fmt.Errorf("compose <dst> <f> <var> <g>")
		}
		f, err := k.lookup(fields[2])
		if err != nil {
			return err
		}
		v, err := k.varIndex(fields[3])
		if err != nil {
			return err
		}
		g, err := k.lookup(fields[4])
		if err != nil {
			return err
		}
		r := k.m.Compose(f, v, g)
		k.env.Define(fields[1], r)
		k.m.Protect(r)
		fmt.Fprintf(&k.out, "%s = %s\n", fields[1], k.m.Format(r))
	case "bdiff":
		if len(fields) != 4 {
			return fmt.Errorf("bdiff <dst> <f> <var>")
		}
		f, err := k.lookup(fields[2])
		if err != nil {
			return err
		}
		v, err := k.varIndex(fields[3])
		if err != nil {
			return err
		}
		r := k.m.BooleanDifference(f, v)
		k.env.Define(fields[1], r)
		k.m.Protect(r)
		fmt.Fprintf(&k.out, "%s = %s\n", fields[1], k.m.Format(r))
	case "sift":
		n, err := k.lookup(arg(fields, 1))
		if err != nil {
			return err
		}
		before := k.m.NodeCount(n)
		order, after := bdd.Sift(k.m, []bdd.Node{n})
		var names []string
		for _, v := range order {
			if name := k.m.Name(v); name != "" {
				names = append(names, name)
			}
		}
		fmt.Fprintf(&k.out, "sift(%s): %d -> %d nodes; best order: %s\n",
			fields[1], before, after, strings.Join(names[:min(len(names), k.declared())], " "))
	case "dot":
		n, err := k.lookup(arg(fields, 1))
		if err != nil {
			return err
		}
		k.out.WriteString(k.m.Dot(n, fields[1]))
	case "gc":
		freed := k.m.GC()
		fmt.Fprintf(&k.out, "gc: freed %d nodes\n", freed)
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
	return nil
}

func arg(fields []string, i int) string {
	if i < len(fields) {
		return fields[i]
	}
	return ""
}

// RunScript executes a whole script; the first error aborts with the
// offending line number.
func (k *KBDD) RunScript(src string) error {
	for i, line := range strings.Split(src, "\n") {
		if err := k.Exec(line); err != nil {
			return fmt.Errorf("line %d: %v", i+1, err)
		}
	}
	return nil
}
