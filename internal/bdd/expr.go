package bdd

import (
	"fmt"
	"strings"
	"unicode"
)

// This file implements the expression language of the course's kbdd
// tool portal: Boolean formulas over named variables with the
// grammar (lowest to highest precedence)
//
//	expr   := xor { ('|' | '+') xor }
//	xor    := term { '^' term }
//	term   := factor { ('&' | '*') factor | factor }   (juxtaposition = AND)
//	factor := ('~' | '!') factor | '(' expr ')' | '0' | '1' | ident [ ''' ]
//
// A trailing apostrophe complements an identifier, matching the
// course's written notation (a b' + c).

// Env maps variable names to manager variable indices for parsing,
// and optionally binds names to previously built functions (the kbdd
// shell's "f = a & b; g = f | c" style).
type Env struct {
	m     *Manager
	vars  map[string]int
	funcs map[string]Node
	next  int
	auto  bool // allocate unseen names automatically
}

// Define binds a name to a function node; subsequent parses resolve
// the name to this node (shadowing any variable of the same name).
func (e *Env) Define(name string, n Node) {
	if e.funcs == nil {
		e.funcs = map[string]Node{}
	}
	e.funcs[name] = n
}

// Defined returns the node bound to name, if any.
func (e *Env) Defined(name string) (Node, bool) {
	n, ok := e.funcs[name]
	return n, ok
}

// NewEnv returns an Env that allocates manager variables on first use
// of each name, in order of appearance.
func NewEnv(m *Manager) *Env {
	return &Env{m: m, vars: map[string]int{}, auto: true}
}

// VarIndex resolves a variable name, allocating it if the Env is
// auto-allocating.
func (e *Env) VarIndex(name string) (int, error) {
	if v, ok := e.vars[name]; ok {
		return v, nil
	}
	if !e.auto {
		return 0, fmt.Errorf("bdd: unknown variable %q", name)
	}
	if e.next >= e.m.NVars() {
		return 0, fmt.Errorf("bdd: out of variables (manager has %d)", e.m.NVars())
	}
	v := e.next
	e.next++
	e.vars[name] = v
	e.m.SetName(v, name)
	return v, nil
}

// Names returns the current name→index binding.
func (e *Env) Names() map[string]int {
	out := make(map[string]int, len(e.vars))
	for k, v := range e.vars {
		out[k] = v
	}
	return out
}

type parser struct {
	src []rune
	pos int
	env *Env
}

// Parse builds the BDD of a Boolean expression in the kbdd language.
func Parse(env *Env, src string) (Node, error) {
	p := &parser{src: []rune(src), env: env}
	n, err := p.parseExpr()
	if err != nil {
		return FalseNode, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return FalseNode, fmt.Errorf("bdd: trailing input at %q", string(p.src[p.pos:]))
	}
	return n, nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(p.src[p.pos]) {
		p.pos++
	}
}

func (p *parser) peek() rune {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) parseExpr() (Node, error) {
	n, err := p.parseXor()
	if err != nil {
		return FalseNode, err
	}
	for {
		c := p.peek()
		if c != '|' && c != '+' {
			return n, nil
		}
		p.pos++
		r, err := p.parseXor()
		if err != nil {
			return FalseNode, err
		}
		n = p.env.m.Or(n, r)
	}
}

func (p *parser) parseXor() (Node, error) {
	n, err := p.parseTerm()
	if err != nil {
		return FalseNode, err
	}
	for p.peek() == '^' {
		p.pos++
		r, err := p.parseTerm()
		if err != nil {
			return FalseNode, err
		}
		n = p.env.m.Xor(n, r)
	}
	return n, nil
}

func (p *parser) parseTerm() (Node, error) {
	n, err := p.parseFactor()
	if err != nil {
		return FalseNode, err
	}
	for {
		c := p.peek()
		switch {
		case c == '&' || c == '*':
			p.pos++
		case c == '(' || c == '~' || c == '!' || c == '0' || c == '1' || isIdentStart(c):
			// juxtaposition
		default:
			return n, nil
		}
		r, err := p.parseFactor()
		if err != nil {
			return FalseNode, err
		}
		n = p.env.m.And(n, r)
	}
}

func (p *parser) parseFactor() (Node, error) {
	c := p.peek()
	switch {
	case c == 0:
		return FalseNode, fmt.Errorf("bdd: unexpected end of expression")
	case c == '~' || c == '!':
		p.pos++
		n, err := p.parseFactor()
		if err != nil {
			return FalseNode, err
		}
		return p.env.m.Not(n), nil
	case c == '(':
		p.pos++
		n, err := p.parseExpr()
		if err != nil {
			return FalseNode, err
		}
		if p.peek() != ')' {
			return FalseNode, fmt.Errorf("bdd: missing ')'")
		}
		p.pos++
		return p.postfix(n), nil
	case c == '0':
		p.pos++
		return p.postfix(FalseNode), nil
	case c == '1':
		p.pos++
		return p.postfix(TrueNode), nil
	case isIdentStart(c):
		start := p.pos
		for p.pos < len(p.src) && isIdentRune(p.src[p.pos]) {
			p.pos++
		}
		name := string(p.src[start:p.pos])
		if n, ok := p.env.Defined(name); ok {
			return p.postfix(n), nil
		}
		v, err := p.env.VarIndex(name)
		if err != nil {
			return FalseNode, err
		}
		return p.postfix(p.env.m.Var(v)), nil
	default:
		return FalseNode, fmt.Errorf("bdd: unexpected character %q", c)
	}
}

// postfix applies trailing apostrophe complements.
func (p *parser) postfix(n Node) Node {
	for p.pos < len(p.src) && p.src[p.pos] == '\'' {
		n = p.env.m.Not(n)
		p.pos++
	}
	return n
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.' || c == '[' || c == ']'
}

// Format renders f as a sum of cubes using variable names — the
// kbdd-style textual output.
func (m *Manager) Format(f Node) string {
	switch f {
	case FalseNode:
		return "0"
	case TrueNode:
		return "1"
	}
	cubes := m.AllSat(f, 64)
	var terms []string
	for _, cu := range cubes {
		var lits []string
		for v, val := range cu {
			switch val {
			case 1:
				lits = append(lits, m.names[v])
			case 0:
				lits = append(lits, m.names[v]+"'")
			}
		}
		if len(lits) == 0 {
			return "1"
		}
		terms = append(terms, strings.Join(lits, " "))
	}
	if len(cubes) == 64 {
		terms = append(terms, "...")
	}
	return strings.Join(terms, " + ")
}
