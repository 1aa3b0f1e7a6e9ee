package techmap

// Library gates are pattern trees over the NAND2/INV basis, as the
// course presents tree covering: every gate's logic is expressed as a
// small NAND/INV tree whose leaves are the gate's pins.

// Pattern is a node in a gate's pattern tree.
type Pattern struct {
	Kind Kind // KInput = pin (wildcard leaf), KInv, KNand
	A, B *Pattern
}

// Gate is a library cell with its pattern, area cost and pin-to-pin
// delay (a single worst-case number, as in the course's simple delay
// model).
type Gate struct {
	Name  string
	Area  float64
	Delay float64
	Pat   *Pattern
}

func pin() *Pattern            { return &Pattern{Kind: KInput} }
func pinv(a *Pattern) *Pattern { return &Pattern{Kind: KInv, A: a} }
func pnand(a, b *Pattern) *Pattern {
	return &Pattern{Kind: KNand, A: a, B: b}
}

// Pins counts the wildcard leaves of the pattern.
func (p *Pattern) Pins() int {
	switch p.Kind {
	case KInput:
		return 1
	case KInv:
		return p.A.Pins()
	default:
		return p.A.Pins() + p.B.Pins()
	}
}

// StandardLibrary returns the course's teaching cell library: INV,
// NAND2/3/4, NOR2, AND2, OR2 and AOI21/AOI22, with the classic
// area/delay numbers used in the lecture examples.
func StandardLibrary() []Gate {
	inv := pinv(pin())
	nand2 := pnand(pin(), pin())
	nand3 := pnand(pinv(pnand(pin(), pin())), pin())
	nand4a := pnand(pinv(pnand(pin(), pin())), pinv(pnand(pin(), pin())))
	nand4b := pnand(pinv(pnand(pinv(pnand(pin(), pin())), pin())), pin())
	nor2 := pinv(pnand(pinv(pin()), pinv(pin())))
	and2 := pinv(pnand(pin(), pin()))
	or2 := pnand(pinv(pin()), pinv(pin()))
	// AOI21: (ab + c)' = INV(NAND(NAND(a,b)', c')') — as NAND/INV tree:
	// ab + c = NAND(NAND(a,b), INV(c)), so AOI21 = INV of that.
	aoi21 := pinv(pnand(pnand(pin(), pin()), pinv(pin())))
	// AOI22: (ab + cd)'.
	aoi22 := pinv(pnand(pnand(pin(), pin()), pnand(pin(), pin())))

	return []Gate{
		{Name: "INV", Area: 1, Delay: 1, Pat: inv},
		{Name: "NAND2", Area: 2, Delay: 1, Pat: nand2},
		{Name: "NAND3", Area: 3, Delay: 1.5, Pat: nand3},
		{Name: "NAND4", Area: 4, Delay: 2, Pat: nand4a},
		{Name: "NAND4B", Area: 4, Delay: 2, Pat: nand4b},
		{Name: "NOR2", Area: 2, Delay: 1.2, Pat: nor2},
		{Name: "AND2", Area: 3, Delay: 1.8, Pat: and2},
		{Name: "OR2", Area: 3, Delay: 1.8, Pat: or2},
		{Name: "AOI21", Area: 3, Delay: 1.6, Pat: aoi21},
		{Name: "AOI22", Area: 4, Delay: 1.8, Pat: aoi22},
	}
}
