package bdd

// Quantification over variable sets. The course teaches these as the
// key tool for formal network repair: the unknowns of the repaired
// gate are universally quantified out of the miter.

// varMask packs a set of variables as a bitmask over levels for cache
// keys. Managers with more than 62 variables fall back to uncached
// recursion for quantifiers, which is fine at course scale.
func (m *Manager) levelMask(vars []int) (uint64, bool) {
	if m.nvars > 62 {
		return 0, false
	}
	var mask uint64
	for _, v := range vars {
		mask |= 1 << uint(m.levelOfVar[v])
	}
	return mask, true
}

// Exists returns ∃vars.f — the smoothing of f by the given variables.
func (m *Manager) Exists(f Node, vars ...int) Node {
	if len(vars) == 0 {
		return f
	}
	mask, cacheable := m.levelMask(vars)
	return m.quantRec(f, mask, cacheable, true, vars)
}

// ForAll returns ∀vars.f — the consensus of f by the given variables.
func (m *Manager) ForAll(f Node, vars ...int) Node {
	if len(vars) == 0 {
		return f
	}
	mask, cacheable := m.levelMask(vars)
	return m.quantRec(f, mask, cacheable, false, vars)
}

func (m *Manager) quantRec(f Node, mask uint64, cacheable, exists bool, vars []int) Node {
	if m.IsTerminal(f) {
		return f
	}
	op := opForAll
	if exists {
		op = opExists
	}
	var key cacheKey
	if cacheable {
		key = cacheKey{op, f, Node(mask & 0xFFFFFFFF), Node(mask >> 32)}
		if r, ok := m.cache[key]; ok {
			return r
		}
	}
	rec := m.nodes[f]
	lo := m.quantRec(rec.lo, mask, cacheable, exists, vars)
	hi := m.quantRec(rec.hi, mask, cacheable, exists, vars)
	var quantHere bool
	if cacheable {
		quantHere = mask&(1<<uint(rec.level)) != 0
	} else {
		v := int(m.varAtLevel[rec.level])
		for _, q := range vars {
			if q == v {
				quantHere = true
				break
			}
		}
	}
	var r Node
	if quantHere {
		if exists {
			r = m.Or(lo, hi)
		} else {
			r = m.And(lo, hi)
		}
	} else {
		r = m.mk(rec.level, lo, hi)
	}
	if cacheable {
		m.cache[key] = r
	}
	return r
}

// BooleanDifference returns ∂f/∂v = f|v=1 ⊕ f|v=0.
func (m *Manager) BooleanDifference(f Node, v int) Node {
	return m.Xor(m.Restrict(f, v, true), m.Restrict(f, v, false))
}
