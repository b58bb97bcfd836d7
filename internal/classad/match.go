package classad

// AttrRequirements and AttrRank are the attribute names the
// matchmaker consults, as in Condor.
const (
	AttrRequirements = "Requirements"
	AttrRank         = "Rank"

	attrRequirementsLower = "requirements"
	attrRankLower         = "rank"
)

// RequirementsMet evaluates a's Requirements with a as self and b as
// target.  Following Condor's matchmaker, only a definite true is a
// pass: UNDEFINED or ERROR in a requirements expression must not
// silently admit a match (Principle 1 applied to matchmaking).
// An ad with no Requirements attribute accepts everything.
//
// The expression is compiled and memoized on the ad the first time it
// is consulted; repeated matches stop re-walking the tree.
func RequirementsMet(a, b *Ad) bool {
	c, ok := a.requirementsCompiled()
	if !ok {
		return true
	}
	return c.EvalBool(a, b)
}

// RequirementsMetSlow is the uncompiled reference implementation: a
// direct AST walk with no memoization.  Equivalence and determinism
// tests compare it against the fast path.
func RequirementsMetSlow(a, b *Ad) bool {
	e, ok := a.Lookup(AttrRequirements)
	if !ok {
		return true
	}
	got, isBool := e.eval(env{self: a, target: b}).BoolValue()
	return isBool && got
}

// Match reports whether the two ads match: each ad's Requirements
// must evaluate to true in the context of the other.  Match is
// symmetric.
func Match(a, b *Ad) bool {
	return RequirementsMet(a, b) && RequirementsMet(b, a)
}

// MatchSlow is Match over the uncompiled reference evaluator.
func MatchSlow(a, b *Ad) bool {
	return RequirementsMetSlow(a, b) && RequirementsMetSlow(b, a)
}

// rankValue converts a Rank evaluation result to a float: missing,
// UNDEFINED, ERROR, or non-numeric Rank is 0.0, as in Condor — rank
// orders candidates but never vetoes them.  Boolean ranks map to
// 1.0/0.0.
func rankValue(v Value) float64 {
	if f, isNum := v.RealValue(); isNum {
		return f
	}
	if bv, isBool := v.BoolValue(); isBool && bv {
		return 1
	}
	return 0
}

// Rank evaluates a's Rank expression against candidate b, through the
// memoized compiled handle.
func Rank(a, b *Ad) float64 {
	c, ok := a.rankCompiled()
	if !ok {
		return 0
	}
	return rankValue(c.Eval(a, b))
}

// RankSlow is Rank over the uncompiled reference evaluator.
func RankSlow(a, b *Ad) float64 {
	e, ok := a.Lookup(AttrRank)
	if !ok {
		return 0
	}
	return rankValue(e.eval(env{self: a, target: b}))
}

// RequirementsPrefilter returns the constant conjuncts of the ad's
// Requirements, or nil when there are none.  Callers may test a
// candidate ad against them (AdmitsAll) to skip full evaluation of
// pairs the full Match would reject anyway.  The slice belongs to the
// compiled Requirements, which ads binding the same Expr share; it
// must not be modified.
func RequirementsPrefilter(a *Ad) []Constraint {
	c, ok := a.requirementsCompiled()
	if !ok {
		return nil
	}
	return c.Prefilter()
}

// BestMatch returns the index of the candidate in cands that matches
// ad with the highest rank (evaluated from ad's point of view), or -1
// if none match.  Ties break toward the earliest candidate, keeping
// matchmaking deterministic.
func BestMatch(ad *Ad, cands []*Ad) int {
	best := -1
	bestRank := 0.0
	pre := RequirementsPrefilter(ad)
	for i, c := range cands {
		if c == nil {
			continue
		}
		if len(pre) > 0 && !AdmitsAll(pre, c) {
			continue
		}
		if !Match(ad, c) {
			continue
		}
		r := Rank(ad, c)
		if best == -1 || r > bestRank {
			best = i
			bestRank = r
		}
	}
	return best
}

// BestMatchN returns the indices of up to n matching candidates,
// ordered by descending rank with ties broken toward the earliest
// candidate.  n <= 0 means all matching candidates.
func BestMatchN(ad *Ad, cands []*Ad, n int) []int {
	if n <= 0 {
		n = len(cands)
	}
	type scored struct {
		idx  int
		rank float64
	}
	top := make([]scored, 0, n)
	pre := RequirementsPrefilter(ad)
	for i, c := range cands {
		if c == nil {
			continue
		}
		if len(pre) > 0 && !AdmitsAll(pre, c) {
			continue
		}
		if !Match(ad, c) {
			continue
		}
		r := Rank(ad, c)
		// Insertion into the running top-n: strictly greater rank
		// moves ahead; equal rank keeps earlier candidates first.
		pos := len(top)
		for pos > 0 && r > top[pos-1].rank {
			pos--
		}
		if pos >= n {
			continue
		}
		if len(top) < n {
			top = append(top, scored{})
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = scored{idx: i, rank: r}
	}
	out := make([]int, len(top))
	for i, s := range top {
		out[i] = s.idx
	}
	return out
}
