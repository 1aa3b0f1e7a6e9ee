package drc

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vlsicad/internal/route"
)

func TestWidthCheck(t *testing.T) {
	rules := DefaultRules()
	shapes := []Rect{
		{Layer: "metal1", Net: "a", X0: 0, Y0: 0, X1: 10, Y1: 1}, // width 1 < 2
		{Layer: "metal1", Net: "b", X0: 0, Y0: 10, X1: 10, Y1: 12},
	}
	v := Check(shapes, rules)
	if len(v) != 1 || v[0].Rule != "width" {
		t.Fatalf("violations = %v", v)
	}
}

func TestShortCheck(t *testing.T) {
	shapes := []Rect{
		{Layer: "metal1", Net: "a", X0: 0, Y0: 0, X1: 10, Y1: 3},
		{Layer: "metal1", Net: "b", X0: 5, Y0: 1, X1: 15, Y1: 4},
	}
	v := Check(shapes, DefaultRules())
	found := false
	for _, x := range v {
		if x.Rule == "short" && x.Nets == [2]string{"a", "b"} {
			found = true
			if x.At.X0 != 5 || x.At.X1 != 10 {
				t.Errorf("short region = %+v", x.At)
			}
		}
	}
	if !found {
		t.Fatalf("no short reported: %v", v)
	}
}

// TestCheckOrderIndependent: a dirty layout lists the same violations
// in the same order however its shapes are ordered. Several violations
// here share (layer, rule, X0, Y0) and differ only in X1, Y1 or nets.
func TestCheckOrderIndependent(t *testing.T) {
	shapes := []Rect{
		{Layer: "metal1", Net: "a", X0: 0, Y0: 0, X1: 10, Y1: 2},
		{Layer: "metal1", Net: "b", X0: 0, Y0: 0, X1: 4, Y1: 2},
		{Layer: "metal1", Net: "c", X0: 0, Y0: 0, X1: 6, Y1: 2},
		{Layer: "metal1", Net: "d", X0: 0, Y0: 0, X1: 4, Y1: 3},
		{Layer: "metal1", Net: "e", X0: 0, Y0: 3, X1: 10, Y1: 5},
		{Layer: "metal1", Net: "f", X0: 0, Y0: 6, X1: 10, Y1: 7},
		{Layer: "metal2", Net: "a", X0: 2, Y0: 0, X1: 4, Y1: 9},
		{Layer: "metal2", Net: "b", X0: 5, Y0: 0, X1: 7, Y1: 9},
		{Layer: "metal2", Net: "c", X0: 5, Y0: 0, X1: 7, Y1: 5},
		{Layer: "metal2", Net: "d", X0: 3, Y0: 3, X1: 3, Y1: 8},
	}
	want := Check(shapes, DefaultRules())
	if len(want) < 10 {
		t.Fatalf("layout should be dirty, got %d violations: %v", len(want), want)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		shuffled := append([]Rect(nil), shapes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := Check(shuffled, DefaultRules()); !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffle %d: violations differ:\n got %v\nwant %v", i, got, want)
		}
	}
}

// allPairsCheck is Check's reference: it tests every pair of shapes on
// a layer directly, with no sweep. Violations come back as sorted
// strings, which carry every field.
func allPairsCheck(shapes []Rect, rules Rules) []string {
	var out []string
	for i, r := range shapes {
		if !r.Valid() {
			out = append(out, Violation{Rule: "degenerate", Layer: r.Layer, Nets: [2]string{r.Net, r.Net}, At: r}.String())
			continue
		}
		if mw, ok := rules.MinWidth[r.Layer]; ok && r.Width() < mw {
			out = append(out, Violation{Rule: "width", Layer: r.Layer, Nets: [2]string{r.Net, r.Net}, At: r}.String())
		}
		for _, s := range shapes[:i] {
			if !s.Valid() || s.Layer != r.Layer || s.Net == r.Net {
				continue
			}
			switch {
			case r.overlaps(s):
				out = append(out, Violation{Rule: "short", Layer: r.Layer, Nets: orderedNets(r.Net, s.Net), At: intersection(r, s)}.String())
			case r.expand(rules.MinSpacing[r.Layer]).overlaps(s):
				out = append(out, Violation{Rule: "spacing", Layer: r.Layer, Nets: orderedNets(r.Net, s.Net), At: gapRegion(r, s)}.String())
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestCheckMatchesAllPairs compares the sweep with the all-pairs
// reference on seeded random dirty layouts: every pair violation is
// found, and none twice.
func TestCheckMatchesAllPairs(t *testing.T) {
	pairs := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := Rules{
			MinWidth:   map[string]int{"metal1": 2, "metal2": 1 + rng.Intn(3)},
			MinSpacing: map[string]int{"metal1": rng.Intn(4), "metal2": 1 + rng.Intn(3)},
		}
		shapes := make([]Rect, 5+rng.Intn(40))
		for i := range shapes {
			x, y := rng.Intn(30), rng.Intn(30)
			shapes[i] = Rect{
				Layer: []string{"metal1", "metal2"}[rng.Intn(2)],
				Net:   string(rune('a' + rng.Intn(5))),
				X0:    x, Y0: y, X1: x + rng.Intn(9), Y1: y + rng.Intn(9),
			}
		}
		var got []string
		for _, v := range Check(shapes, rules) {
			got = append(got, v.String())
			if v.Rule == "short" || v.Rule == "spacing" {
				pairs++
			}
		}
		slices.Sort(got)
		if want := allPairsCheck(shapes, rules); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Check found %d violations, all pairs %d:\n got %v\nwant %v", seed, len(got), len(want), got, want)
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d pair violations over all seeds: layouts are not dirty enough", pairs)
	}
}

func TestSpacingCheck(t *testing.T) {
	shapes := []Rect{
		{Layer: "metal1", Net: "a", X0: 0, Y0: 0, X1: 4, Y1: 4},
		{Layer: "metal1", Net: "b", X0: 5, Y0: 0, X1: 9, Y1: 4}, // gap 1 < 2
		{Layer: "metal1", Net: "c", X0: 12, Y0: 0, X1: 16, Y1: 4},
	}
	v := Check(shapes, DefaultRules())
	spacing := 0
	for _, x := range v {
		if x.Rule == "spacing" {
			spacing++
			if x.Nets != [2]string{"a", "b"} {
				t.Errorf("spacing between %v", x.Nets)
			}
		}
	}
	if spacing != 1 {
		t.Fatalf("spacing violations = %d (%v)", spacing, v)
	}
}

func TestSameNetMayTouch(t *testing.T) {
	shapes := []Rect{
		{Layer: "metal1", Net: "a", X0: 0, Y0: 0, X1: 4, Y1: 4},
		{Layer: "metal1", Net: "a", X0: 2, Y0: 2, X1: 8, Y1: 6},
	}
	if v := Check(shapes, DefaultRules()); len(v) != 0 {
		t.Errorf("same-net overlap flagged: %v", v)
	}
}

func TestDifferentLayersDontInteract(t *testing.T) {
	shapes := []Rect{
		{Layer: "metal1", Net: "a", X0: 0, Y0: 0, X1: 4, Y1: 4},
		{Layer: "metal2", Net: "b", X0: 0, Y0: 0, X1: 4, Y1: 4},
	}
	if v := Check(shapes, DefaultRules()); len(v) != 0 {
		t.Errorf("cross-layer interaction flagged: %v", v)
	}
}

func TestDegenerate(t *testing.T) {
	v := Check([]Rect{{Layer: "metal1", Net: "a", X0: 3, Y0: 0, X1: 3, Y1: 5}}, DefaultRules())
	if len(v) != 1 || v[0].Rule != "degenerate" {
		t.Errorf("violations = %v", v)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: "short", Layer: "metal1", Nets: [2]string{"a", "b"},
		At: Rect{X0: 1, Y0: 2, X1: 3, Y1: 4}}
	if !strings.Contains(v.String(), "short violation on metal1") {
		t.Errorf("String() = %q", v.String())
	}
}

func TestExtractPathElmore(t *testing.T) {
	// 4-step metal1 path with a via pair and one metal2 segment.
	p := route.Path{
		{X: 0, Y: 0, L: 0}, {X: 1, Y: 0, L: 0}, {X: 2, Y: 0, L: 0},
		{X: 2, Y: 0, L: 1}, {X: 2, Y: 1, L: 1},
	}
	tree, d, err := ExtractPath(p, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != len(p) {
		t.Errorf("tree nodes = %d, want %d", len(tree.Nodes), len(p))
	}
	if d <= 0 {
		t.Errorf("delay = %g", d)
	}
	// A longer wire must be slower.
	longer := route.Path{}
	for x := 0; x < 10; x++ {
		longer = append(longer, route.Point{X: x, Y: 0, L: 0})
	}
	_, d2, err := ExtractPath(longer, DefaultTech())
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d {
		t.Errorf("longer wire should be slower: %g vs %g", d2, d)
	}
	if _, _, err := ExtractPath(nil, DefaultTech()); err == nil {
		t.Error("empty path should fail")
	}
}

func TestWiresToShapesAndDRCOfRoutedDesign(t *testing.T) {
	// Route two parallel nets with the real router; with pitch 4 (>=
	// 2*spacing) the routed design must be DRC-clean.
	g := route.NewGrid(10, 10, route.DefaultCost())
	nets := []route.Net{
		{Name: "a", A: route.Point{X: 0, Y: 2, L: 0}, B: route.Point{X: 9, Y: 2, L: 0}},
		{Name: "b", A: route.Point{X: 0, Y: 4, L: 0}, B: route.Point{X: 9, Y: 4, L: 0}},
	}
	res := route.RouteAll(g, nets, route.Opts{Alg: route.AStar})
	if len(res.Failed) > 0 {
		t.Fatal("routing failed")
	}
	shapes := WiresToShapes(res.Paths, 4)
	if len(shapes) == 0 {
		t.Fatal("no shapes")
	}
	if v := Check(shapes, DefaultRules()); len(v) != 0 {
		t.Errorf("routed design has violations: %v", v)
	}
	// At pitch 1 the same wires violate spacing (adjacent tracks).
	tight := WiresToShapes(map[string]route.Path{
		"a": {{X: 0, Y: 0, L: 0}, {X: 3, Y: 0, L: 0}},
		"b": {{X: 0, Y: 1, L: 0}, {X: 3, Y: 1, L: 0}},
	}, 2)
	v := Check(tight, DefaultRules())
	hasSpacing := false
	for _, x := range v {
		if x.Rule == "spacing" || x.Rule == "short" {
			hasSpacing = true
		}
	}
	if !hasSpacing {
		t.Errorf("tight tracks should violate spacing: %v", v)
	}
}
