package espresso

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"vlsicad/internal/cube"
)

// PLA is the Berkeley .pla file the course's espresso portal consumed:
// a multi-output personality matrix with per-output on/off/dc planes.
type PLA struct {
	NI, NO   int
	InNames  []string
	OutNames []string
	Rows     []Row
}

// Row pairs one input cube with its per-output plane symbols
// ('1' on-set, '0' off (type f) or unspecified (type fd), '-' dc).
type Row struct {
	In  cube.Cube
	Out []byte
}

// ParsePLA reads an espresso PLA file (the f/fd subset: '1' rows are
// the on-set, '-' rows the dc-set).
func ParsePLA(r io.Reader) (*PLA, error) {
	p := &PLA{NI: -1, NO: -1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".i":
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad .i line %q", line)
			}
			p.NI = n
		case ".o":
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad .o line %q", line)
			}
			p.NO = n
		case ".ilb":
			p.InNames = fields[1:]
		case ".ob":
			p.OutNames = fields[1:]
		case ".p", ".type", ".phase", ".pair":
			// .p is advisory; .type f/fd both match our reading.
		case ".e", ".end":
			// done
		default:
			if strings.HasPrefix(fields[0], ".") {
				return nil, fmt.Errorf("unsupported directive %q", fields[0])
			}
			if p.NI < 0 || p.NO < 0 {
				return nil, fmt.Errorf("cube row before .i/.o")
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("bad row %q", line)
			}
			if len(fields[0]) != p.NI || len(fields[1]) != p.NO {
				return nil, fmt.Errorf("row %q does not match .i %d .o %d", line, p.NI, p.NO)
			}
			in, err := cube.ParseCube(fields[0])
			if err != nil {
				return nil, err
			}
			out := []byte(fields[1])
			for _, b := range out {
				if b != '1' && b != '0' && b != '-' && b != '~' {
					return nil, fmt.Errorf("bad output plane %q", fields[1])
				}
			}
			p.Rows = append(p.Rows, Row{In: in, Out: out})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.NI < 0 || p.NO < 0 {
		return nil, fmt.Errorf("missing .i or .o")
	}
	if p.InNames == nil {
		for i := 0; i < p.NI; i++ {
			p.InNames = append(p.InNames, fmt.Sprintf("x%d", i+1))
		}
	}
	if p.OutNames == nil {
		for i := 0; i < p.NO; i++ {
			p.OutNames = append(p.OutNames, fmt.Sprintf("f%d", i+1))
		}
	}
	return p, nil
}

// OnSet extracts the on-set cover of output o.
func (p *PLA) OnSet(o int) *cube.Cover {
	f := cube.NewCover(p.NI)
	for _, row := range p.Rows {
		if row.Out[o] == '1' {
			f.Add(row.In.Clone())
		}
	}
	return f
}

// DCSet extracts the don't-care cover of output o.
func (p *PLA) DCSet(o int) *cube.Cover {
	f := cube.NewCover(p.NI)
	for _, row := range p.Rows {
		if row.Out[o] == '-' || row.Out[o] == '~' {
			f.Add(row.In.Clone())
		}
	}
	return f
}

// Minimize runs the espresso loop on every output and returns the
// minimized PLA plus per-output statistics.
func (p *PLA) Minimize() (*PLA, []Stats) {
	out := &PLA{NI: p.NI, NO: p.NO, InNames: p.InNames, OutNames: p.OutNames}
	stats := make([]Stats, p.NO)
	for o := 0; o < p.NO; o++ {
		min, st := Minimize(p.OnSet(o), p.DCSet(o))
		stats[o] = st
		for _, c := range min.Cubes {
			plane := make([]byte, p.NO)
			for i := range plane {
				plane[i] = '0'
			}
			plane[o] = '1'
			out.Rows = append(out.Rows, Row{In: c.Clone(), Out: plane})
		}
	}
	return out, stats
}

// WritePLA writes the PLA in espresso format.
func WritePLA(w io.Writer, p *PLA) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n", p.NI, p.NO)
	fmt.Fprintf(bw, ".ilb %s\n", strings.Join(p.InNames, " "))
	fmt.Fprintf(bw, ".ob %s\n", strings.Join(p.OutNames, " "))
	fmt.Fprintf(bw, ".p %d\n", len(p.Rows))
	for _, row := range p.Rows {
		fmt.Fprintf(bw, "%s %s\n", row.In.Row(), row.Out)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}
