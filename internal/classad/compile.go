package classad

import (
	"strconv"
	"strings"
)

// This file implements the matchmaking fast path: a compile step that
// lowers a parsed expression into a tree of closures with interned
// (pre-lowered) attribute names, plus a static pre-filter extracted
// from the constant conjuncts of a Requirements expression.
//
// The compiled form changes no semantics: for every (self, target)
// pair a compiled expression returns exactly the value the AST walk
// returns.  The pre-filter is one-sided by construction — it may only
// reject pairs that full evaluation would also reject (see the
// soundness note on Constraint.Admits).

// cnode is one compiled expression node.  Passing self/target/depth
// as plain arguments keeps evaluation off the heap entirely.
type cnode func(self, target *Ad, depth int) Value

// Compiled is an expression lowered for repeated evaluation.
type Compiled struct {
	src Expr
	fn  cnode
	pre []Constraint
}

// Compile lowers a parsed expression.  Constant subtrees are folded
// at compile time; attribute references carry interned lower-case
// names resolved against the ad at evaluation time, so one Compiled
// serves every ad binding the same Expr.
func Compile(e Expr) *Compiled {
	return &Compiled{src: e, fn: compileNode(e), pre: extractConstraints(e)}
}

// Expr returns the expression the compilation came from.
func (c *Compiled) Expr() Expr { return c.src }

// Prefilter returns the constant conjuncts extracted from the
// expression, for use as a machine-index pre-filter.
func (c *Compiled) Prefilter() []Constraint { return c.pre }

// Eval evaluates the compiled expression with self and target ads.
func (c *Compiled) Eval(self, target *Ad) Value { return c.fn(self, target, 0) }

// EvalBool evaluates and reports whether the result is a definite
// true — the matchmaker's acceptance test (UNDEFINED and ERROR fail).
func (c *Compiled) EvalBool(self, target *Ad) bool {
	b, ok := c.fn(self, target, 0).BoolValue()
	return ok && b
}

// isConstExpr reports whether e evaluates independently of any ad:
// no attribute references or selections anywhere beneath it.
// Builtins are pure, so constant-argument calls qualify.
func isConstExpr(e Expr) bool {
	switch n := e.(type) {
	case *literalExpr:
		return true
	case *unaryExpr:
		return isConstExpr(n.x)
	case *binaryExpr:
		return isConstExpr(n.l) && isConstExpr(n.r)
	case *condExpr:
		return isConstExpr(n.cond) && isConstExpr(n.then) && isConstExpr(n.els)
	case *listExpr:
		for _, el := range n.elems {
			if !isConstExpr(el) {
				return false
			}
		}
		return true
	case *callExpr:
		for _, a := range n.args {
			if !isConstExpr(a) {
				return false
			}
		}
		return true
	}
	return false
}

// compileNode lowers one AST node into a closure.
func compileNode(e Expr) cnode {
	if isConstExpr(e) {
		v := e.eval(env{})
		return func(*Ad, *Ad, int) Value { return v }
	}
	switch n := e.(type) {
	case *literalExpr:
		v := n.v
		return func(*Ad, *Ad, int) Value { return v }
	case *attrRefExpr:
		name := n.lower
		switch n.scope {
		case "my":
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				return lookupIn(self, name, depth+1, target)
			}
		case "target":
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				return lookupIn(target, name, depth+1, self)
			}
		default:
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				if self != nil {
					if expr, ok := self.lookupLower(name); ok {
						if lit, isLit := expr.(*literalExpr); isLit {
							return lit.v
						}
						return expr.eval(env{self: self, target: target, depth: depth + 1})
					}
				}
				if target != nil {
					if expr, ok := target.lookupLower(name); ok {
						if lit, isLit := expr.(*literalExpr); isLit {
							return lit.v
						}
						// Inside the target ad, the roles reverse.
						return expr.eval(env{self: target, target: self, depth: depth + 1})
					}
				}
				return Undefined()
			}
		}
	case *unaryExpr:
		xc := compileNode(n.x)
		op := n.op
		return func(self, target *Ad, depth int) Value {
			if depth+1 > maxEvalDepth {
				return ErrorValue()
			}
			return applyUnary(op, xc(self, target, depth+1))
		}
	case *condExpr:
		cc := compileNode(n.cond)
		tc := compileNode(n.then)
		ec := compileNode(n.els)
		return func(self, target *Ad, depth int) Value {
			if depth+1 > maxEvalDepth {
				return ErrorValue()
			}
			c := cc(self, target, depth+1)
			switch c.Type() {
			case BooleanType:
				b, _ := c.BoolValue()
				if b {
					return tc(self, target, depth+1)
				}
				return ec(self, target, depth+1)
			case UndefinedType, ErrorType:
				return c
			default:
				return ErrorValue()
			}
		}
	case *listExpr:
		elems := make([]cnode, len(n.elems))
		for i, el := range n.elems {
			elems[i] = compileNode(el)
		}
		return func(self, target *Ad, depth int) Value {
			if depth+1 > maxEvalDepth {
				return ErrorValue()
			}
			vs := make([]Value, len(elems))
			for i, ec := range elems {
				vs[i] = ec(self, target, depth+1)
			}
			return List(vs...)
		}
	case *binaryExpr:
		lc := compileNode(n.l)
		rc := compileNode(n.r)
		switch n.op {
		case tokAnd:
			return compileAnd(lc, rc)
		case tokOr:
			return compileOr(lc, rc)
		case tokMetaEQ:
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				return Bool(lc(self, target, depth+1).Equal(rc(self, target, depth+1)))
			}
		case tokMetaNE:
			return func(self, target *Ad, depth int) Value {
				if depth+1 > maxEvalDepth {
					return ErrorValue()
				}
				return Bool(!lc(self, target, depth+1).Equal(rc(self, target, depth+1)))
			}
		}
		op := n.op
		return func(self, target *Ad, depth int) Value {
			if depth+1 > maxEvalDepth {
				return ErrorValue()
			}
			l := lc(self, target, depth+1)
			r := rc(self, target, depth+1)
			// ERROR dominates UNDEFINED; both propagate.
			if l.IsError() || r.IsError() {
				return ErrorValue()
			}
			if l.IsUndefined() || r.IsUndefined() {
				return Undefined()
			}
			switch op {
			case tokPlus, tokMinus, tokStar, tokSlash, tokPct:
				return evalArith(op, l, r)
			case tokEQ, tokNE, tokLT, tokLE, tokGT, tokGE:
				return evalCompare(op, l, r)
			}
			return ErrorValue()
		}
	default:
		// selectExpr, callExpr, adExpr: rare outside configuration;
		// evaluate through the AST, which performs its own depth check.
		return func(self, target *Ad, depth int) Value {
			return e.eval(env{self: self, target: target, depth: depth})
		}
	}
}

// compileAnd mirrors evalAnd's three-valued conjunction over compiled
// operands: a definite false wins over UNDEFINED/ERROR.
func compileAnd(lc, rc cnode) cnode {
	return func(self, target *Ad, depth int) Value {
		if depth+1 > maxEvalDepth {
			return ErrorValue()
		}
		l := lc(self, target, depth+1)
		if b, ok := l.BoolValue(); ok && !b {
			return Bool(false)
		}
		r := rc(self, target, depth+1)
		if b, ok := r.BoolValue(); ok && !b {
			return Bool(false)
		}
		if l.IsError() || r.IsError() {
			return ErrorValue()
		}
		if l.IsUndefined() || r.IsUndefined() {
			return Undefined()
		}
		lb, lok := l.BoolValue()
		rb, rok := r.BoolValue()
		if !lok || !rok {
			return ErrorValue()
		}
		return Bool(lb && rb)
	}
}

// compileOr mirrors evalOr: a definite true wins.
func compileOr(lc, rc cnode) cnode {
	return func(self, target *Ad, depth int) Value {
		if depth+1 > maxEvalDepth {
			return ErrorValue()
		}
		l := lc(self, target, depth+1)
		if b, ok := l.BoolValue(); ok && b {
			return Bool(true)
		}
		r := rc(self, target, depth+1)
		if b, ok := r.BoolValue(); ok && b {
			return Bool(true)
		}
		if l.IsError() || r.IsError() {
			return ErrorValue()
		}
		if l.IsUndefined() || r.IsUndefined() {
			return Undefined()
		}
		lb, lok := l.BoolValue()
		rb, rok := r.BoolValue()
		if !lok || !rok {
			return ErrorValue()
		}
		return Bool(lb || rb)
	}
}

// --- static pre-filter ---

// Constraint is one constant conjunct of a Requirements expression
// that mentions only a target attribute and a literal: `target.X`
// alone, or `target.X OP literal` for a comparison operator.  The
// matchmaker uses constraints to index machines and to skip full
// evaluation of obviously incompatible pairs.
type Constraint struct {
	// Attr is the lower-cased target attribute name.
	Attr string
	// Val is the literal operand (unset when IsTrue).
	Val Value
	// IsTrue marks a bare `target.X` conjunct, which requires the
	// attribute to be the boolean constant true.
	IsTrue bool

	tok tokenKind // comparison operator when !IsTrue
}

// Op renders the constraint operator for diagnostics.
func (c Constraint) Op() string {
	if c.IsTrue {
		return "istrue"
	}
	return binaryOpText[c.tok]
}

// String renders the constraint.
func (c Constraint) String() string {
	if c.IsTrue {
		return c.Attr
	}
	return c.Attr + " " + c.Op() + " " + c.Val.String()
}

// IndexKey returns the canonical equality-bucket key for the
// constraint, and whether the constraint is equality-indexable at
// all.  Keys follow ClassAd equality: numbers compare across
// int/real, strings compare case-insensitively.
func (c Constraint) IndexKey() (string, bool) {
	if c.IsTrue {
		return ValueIndexKey(Bool(true))
	}
	if c.tok != tokEQ {
		return "", false
	}
	return ValueIndexKey(c.Val)
}

// ValueIndexKey canonicalizes a constant value for equality
// bucketing; two values receive the same key whenever the ClassAd ==
// operator calls them equal.  Lists, nested ads, UNDEFINED, and ERROR
// are not indexable.
func ValueIndexKey(v Value) (string, bool) {
	switch v.Type() {
	case BooleanType:
		b, _ := v.BoolValue()
		if b {
			return "b:true", true
		}
		return "b:false", true
	case IntegerType, RealType:
		f, _ := v.RealValue()
		if f == 0 {
			f = 0 // -0.0 == 0, so both zeros share one key
		}
		return "n:" + strconv.FormatFloat(f, 'g', -1, 64), true
	case StringType:
		s, _ := v.StringValue()
		return "s:" + strings.ToLower(s), true
	}
	return "", false
}

// Admits reports whether the target ad could satisfy the constraint.
// It reads the ad's own binding for the attribute, so it takes no
// snapshot and allocates nothing.
//
// Soundness: Admits returns false only when the conjunct it came from
// cannot evaluate to true against this target — the attribute is
// absent (the conjunct is UNDEFINED), or it is a literal for which
// the comparison is definitely false or a type error.  In every such
// case the enclosing conjunction cannot be definitely true, so
// RequirementsMet would reject the pair too.  A defined but
// non-constant attribute always admits: the pre-filter never guesses
// at dynamic expressions.
func (c Constraint) Admits(t *Ad) bool {
	if t == nil {
		return true
	}
	i, ok := t.pos(c.Attr)
	if !ok {
		return false // absent: the conjunct is UNDEFINED
	}
	lit, isConst := t.exprs[i].(*literalExpr)
	if !isConst {
		return true
	}
	v := lit.v
	if c.IsTrue {
		b, ok := v.BoolValue()
		return ok && b
	}
	if v.IsUndefined() || v.IsError() || c.Val.IsUndefined() || c.Val.IsError() {
		// The conjunct propagates UNDEFINED/ERROR: never true.
		return false
	}
	b, ok := evalCompare(c.tok, v, c.Val).BoolValue()
	return ok && b
}

// AdmitsAll reports whether every constraint admits the target ad.
func AdmitsAll(pre []Constraint, t *Ad) bool {
	for _, c := range pre {
		if !c.Admits(t) {
			return false
		}
	}
	return true
}

// extractConstraints walks the top-level conjunction of e collecting
// constant target conjuncts.
func extractConstraints(e Expr) []Constraint {
	var out []Constraint
	collectConstraints(e, &out)
	return out
}

func collectConstraints(e Expr, out *[]Constraint) {
	switch n := e.(type) {
	case *attrRefExpr:
		if n.scope == "target" {
			*out = append(*out, Constraint{Attr: n.lower, IsTrue: true})
		}
	case *binaryExpr:
		switch n.op {
		case tokAnd:
			collectConstraints(n.l, out)
			collectConstraints(n.r, out)
		case tokEQ, tokNE, tokLT, tokLE, tokGT, tokGE:
			if ref, ok := targetRef(n.l); ok {
				if lit, ok := n.r.(*literalExpr); ok {
					*out = append(*out, Constraint{Attr: ref.lower, tok: n.op, Val: lit.v})
				}
			} else if ref, ok := targetRef(n.r); ok {
				if lit, ok := n.l.(*literalExpr); ok {
					*out = append(*out, Constraint{Attr: ref.lower, tok: flipCompare(n.op), Val: lit.v})
				}
			}
		}
	}
}

// targetRef matches a `target.X` attribute reference.
func targetRef(e Expr) (*attrRefExpr, bool) {
	ref, ok := e.(*attrRefExpr)
	if !ok || ref.scope != "target" {
		return nil, false
	}
	return ref, true
}

// flipCompare mirrors a comparison when its operands swap sides:
// `lit OP target.X` becomes `target.X flip(OP) lit`.
func flipCompare(op tokenKind) tokenKind {
	switch op {
	case tokLT:
		return tokGT
	case tokLE:
		return tokGE
	case tokGT:
		return tokLT
	case tokGE:
		return tokLE
	}
	return op // == and != are symmetric
}

// --- attribute walk ---

// EachAttr calls fn for every attribute of the ad, in insertion order,
// with its lower-cased name.  A literal binding passes its value and
// constant=true; any other binding is dynamic and passes the zero
// Value with constant=false.  The matchmaker indexes machine ads by
// walking them, so an advertised ad must stay immutable: the walk that
// unindexes it has to see what the walk that indexed it saw.
func (a *Ad) EachAttr(fn func(lower string, v Value, constant bool)) {
	if a == nil {
		return
	}
	for i, lower := range a.lower {
		if lit, ok := a.exprs[i].(*literalExpr); ok {
			fn(lower, lit.v, true)
		} else {
			fn(lower, Value{}, false)
		}
	}
}

// applyUnary applies ! or unary minus, shared by the AST and compiled
// evaluators.
func applyUnary(op tokenKind, x Value) Value {
	switch op {
	case tokNot:
		switch x.Type() {
		case BooleanType:
			b, _ := x.BoolValue()
			return Bool(!b)
		case UndefinedType, ErrorType:
			return x
		default:
			return ErrorValue()
		}
	case tokMinus:
		switch x.Type() {
		case IntegerType:
			i, _ := x.IntValue()
			return Int(-i)
		case RealType:
			r, _ := x.RealValue()
			return Real(-r)
		case UndefinedType, ErrorType:
			return x
		default:
			return ErrorValue()
		}
	}
	return ErrorValue()
}
