package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"vlsicad/internal/cube"
)

// ParseBLIF reads a combinational network in the Berkeley Logic
// Interchange Format subset the course tools use: .model, .inputs,
// .outputs, .names (single-output covers) and .end. Off-set covers
// (output plane '0') are complemented into on-set form on the fly.
func ParseBLIF(r io.Reader) (*Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)

	// Join continuation lines ending in '\'.
	var lines []string
	var pending string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if strings.HasSuffix(line, "\\") {
			pending += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		line = pending + line
		pending = ""
		if line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	nw := New("top")
	type rawNode struct {
		signals []string // fanins + output
		rows    []string // cover rows
	}
	var cur *rawNode

	flush := func() error {
		if cur == nil {
			return nil
		}
		defer func() { cur = nil }()
		sigs := cur.signals
		out := sigs[len(sigs)-1]
		fanins := sigs[:len(sigs)-1]
		onRows, offRows := []string{}, []string{}
		for _, row := range cur.rows {
			fields := strings.Fields(row)
			var inPart, outPart string
			switch {
			case len(fanins) == 0 && len(fields) == 1:
				inPart, outPart = "", fields[0]
			case len(fields) == 2:
				inPart, outPart = fields[0], fields[1]
			default:
				return fmt.Errorf("netlist: bad .names row %q for %s", row, out)
			}
			if len(inPart) != len(fanins) {
				return fmt.Errorf("netlist: row %q width %d, node %s has %d fanins", row, len(inPart), out, len(fanins))
			}
			switch outPart {
			case "1":
				onRows = append(onRows, inPart)
			case "0":
				offRows = append(offRows, inPart)
			default:
				return fmt.Errorf("netlist: bad output plane %q in row %q", outPart, row)
			}
		}
		if len(onRows) > 0 && len(offRows) > 0 {
			return fmt.Errorf("netlist: node %s mixes on-set and off-set rows", out)
		}
		var cov *cube.Cover
		var err error
		switch {
		case len(offRows) > 0:
			cov, err = cube.ParseCover(offRows)
			if err == nil {
				cov = cov.Complement()
			}
		case len(onRows) > 0:
			if len(fanins) == 0 {
				cov = cube.Universal(0) // constant 1
			} else {
				cov, err = cube.ParseCover(onRows)
			}
		default:
			cov = cube.NewCover(len(fanins)) // constant 0
		}
		if err != nil {
			return fmt.Errorf("netlist: node %s: %v", out, err)
		}
		nw.AddNode(out, fanins, cov)
		return nil
	}

	for _, line := range lines {
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				nw.Name = fields[1]
			}
		case ".inputs":
			if err := flush(); err != nil {
				return nil, err
			}
			nw.Inputs = append(nw.Inputs, fields[1:]...)
		case ".outputs":
			if err := flush(); err != nil {
				return nil, err
			}
			nw.Outputs = append(nw.Outputs, fields[1:]...)
		case ".names":
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("netlist: .names needs at least an output")
			}
			cur = &rawNode{signals: fields[1:]}
		case ".end":
			if err := flush(); err != nil {
				return nil, err
			}
		case ".latch", ".gate", ".subckt":
			return nil, fmt.Errorf("netlist: unsupported BLIF construct %q (combinational subset only)", fields[0])
		default:
			if cur == nil {
				return nil, fmt.Errorf("netlist: unexpected line %q", line)
			}
			cur.rows = append(cur.rows, line)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := nw.Check(); err != nil {
		return nil, err
	}
	return nw, nil
}

// WriteBLIF writes the network in BLIF form, nodes in topological
// order.
func WriteBLIF(w io.Writer, nw *Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nw.Name)
	fmt.Fprintf(bw, ".inputs %s\n", strings.Join(nw.Inputs, " "))
	fmt.Fprintf(bw, ".outputs %s\n", strings.Join(nw.Outputs, " "))
	order, err := nw.TopoSort()
	if err != nil {
		return err
	}
	for _, n := range order {
		fmt.Fprintf(bw, ".names %s %s\n", strings.Join(n.Fanins, " "), n.Name)
		if n.Cover.IsEmpty() {
			continue // constant 0: no rows
		}
		for _, c := range n.Cover.Cubes {
			if len(c) > 0 {
				bw.WriteString(c.Row())
				bw.WriteByte(' ')
			}
			bw.WriteString("1\n")
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// Signals returns every signal name (inputs and node outputs), sorted.
func (nw *Network) Signals() []string {
	var out []string
	out = append(out, nw.Inputs...)
	for name := range nw.Nodes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
