package bdd

import (
	"strings"
	"testing"
)

func TestDotOutput(t *testing.T) {
	m := New(2)
	env := NewEnv(m)
	f := MustParse(env, "a & b")
	dot := m.Dot(f, "and2")
	for _, want := range []string{
		"digraph \"and2\"", "node0 [label=\"0\"", "node1 [label=\"1\"",
		"style=dashed", "label=\"a\"", "label=\"b\"",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q:\n%s", want, dot)
		}
	}
	// Terminal-only diagram.
	dotT := m.Dot(TrueNode, "one")
	if !strings.Contains(dotT, "digraph") {
		t.Error("terminal diagram malformed")
	}
}
