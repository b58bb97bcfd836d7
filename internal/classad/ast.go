package classad

import (
	"fmt"
	"strings"
)

// Expr is a parsed ClassAd expression.  Expressions are immutable
// after parsing and safe for concurrent evaluation.
type Expr interface {
	// String renders the expression in parseable ClassAd syntax.
	String() string
	eval(en env) Value
}

// literalExpr is a constant.
type literalExpr struct{ v Value }

func (e *literalExpr) String() string { return e.v.String() }

// attrRefExpr references an attribute, optionally qualified by a
// resolution scope: "" (unqualified), "my", or "target".  The
// lower-cased name is interned at construction so evaluation never
// re-folds case on the hot path.
type attrRefExpr struct {
	scope string
	name  string
	lower string
}

// newAttrRef interns the lowered attribute name at parse time.
func newAttrRef(scope, name string) *attrRefExpr {
	return &attrRefExpr{scope: scope, name: name, lower: strings.ToLower(name)}
}

func (e *attrRefExpr) String() string {
	if e.scope != "" {
		return e.scope + "." + e.name
	}
	return e.name
}

// selectExpr selects an attribute from the ad value of base.
type selectExpr struct {
	base  Expr
	name  string
	lower string
}

// newSelect interns the lowered attribute name at parse time.
func newSelect(base Expr, name string) *selectExpr {
	return &selectExpr{base: base, name: name, lower: strings.ToLower(name)}
}

func (e *selectExpr) String() string {
	return fmt.Sprintf("%s.%s", e.base, e.name)
}

// unaryExpr applies ! or unary -.
type unaryExpr struct {
	op tokenKind
	x  Expr
}

func (e *unaryExpr) String() string {
	op := "!"
	if e.op == tokMinus {
		op = "-"
	}
	return op + e.x.String()
}

// binaryExpr applies a binary operator.
type binaryExpr struct {
	op   tokenKind
	l, r Expr
}

var binaryOpText = map[tokenKind]string{
	tokPlus: "+", tokMinus: "-", tokStar: "*", tokSlash: "/", tokPct: "%",
	tokLT: "<", tokLE: "<=", tokGT: ">", tokGE: ">=",
	tokEQ: "==", tokNE: "!=", tokMetaEQ: "=?=", tokMetaNE: "=!=",
	tokAnd: "&&", tokOr: "||",
}

// String concatenates rather than formatting: Requirements and Rank
// are binary trees, and an ad renders them on every String.
func (e *binaryExpr) String() string {
	return "(" + e.l.String() + " " + binaryOpText[e.op] + " " + e.r.String() + ")"
}

// condExpr is the ternary conditional.
type condExpr struct {
	cond, then, els Expr
}

func (e *condExpr) String() string {
	return fmt.Sprintf("(%s ? %s : %s)", e.cond, e.then, e.els)
}

// callExpr is a builtin function call.  The builtin implementation is
// resolved once at parse time; an unknown name leaves fn nil and the
// call evaluates to ERROR.
type callExpr struct {
	name string
	args []Expr
	fn   builtinFunc
}

// newCall resolves the builtin at parse time.  name must already be
// lower-cased by the parser.
func newCall(name string, args []Expr) *callExpr {
	return &callExpr{name: name, args: args, fn: builtins[name]}
}

func (e *callExpr) String() string {
	parts := make([]string, len(e.args))
	for i, a := range e.args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.name, strings.Join(parts, ", "))
}

// listExpr is a literal list.
type listExpr struct{ elems []Expr }

func (e *listExpr) String() string {
	parts := make([]string, len(e.elems))
	for i, a := range e.elems {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// adExpr is a literal nested ClassAd.
type adExpr struct{ ad *Ad }

func (e *adExpr) String() string { return e.ad.String() }

// Lit wraps a constant value as an expression.
func Lit(v Value) Expr { return &literalExpr{v: v} }

// AttrRef builds an unqualified attribute reference expression.
func AttrRef(name string) Expr { return newAttrRef("", name) }
