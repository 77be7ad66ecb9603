package minipy

// The AST node types. Every node records its source line so runtime
// errors can point back at code; serialization of function code objects
// walks these nodes (see the pickle package and Print in printer.go).

// Node is the interface implemented by every AST node.
type Node interface {
	Pos() int // 1-based source line
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

type base struct{ Line int }

func (b base) Pos() int { return b.Line }

// ---- Statements ----

// Module is the root node of a parsed file: a list of statements.
type Module struct {
	base
	Body []Stmt
}

func (*Module) stmtNode() {}

// DefStmt is a function definition: def Name(params): body.
type DefStmt struct {
	base
	Name    string
	Params  []Param
	Body    []Stmt
	Doc     string // docstring, if the first body statement is a string literal
	EndLine int    // last source line of the body (for source extraction)
}

func (*DefStmt) stmtNode() {}

// Param is a single function parameter with an optional default value.
type Param struct {
	Name    string
	Default Expr // nil if required
}

// ReturnStmt returns an optional value from the enclosing function.
type ReturnStmt struct {
	base
	Value Expr // nil means return None
}

func (*ReturnStmt) stmtNode() {}

// IfStmt runs Body when Cond is true.
type IfStmt struct {
	base
	Cond Expr
	Body []Stmt
}

func (*IfStmt) stmtNode() {}

// WhileStmt is a while loop.
type WhileStmt struct {
	base
	Cond Expr
	Body []Stmt
}

func (*WhileStmt) stmtNode() {}

// ForStmt is a for-in loop binding one name per element.
type ForStmt struct {
	base
	Target string
	Iter   Expr
	Body   []Stmt
}

func (*ForStmt) stmtNode() {}

// AssignStmt assigns Value to Target. Op is Assign for plain "=", or
// PlusAssign for "+=".
type AssignStmt struct {
	base
	Target Expr // NameExpr, IndexExpr, or TupleExpr of those
	Op     Kind
	Value  Expr
}

func (*AssignStmt) stmtNode() {}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	base
	Value Expr
}

func (*ExprStmt) stmtNode() {}

// ImportStmt imports a module: import m [as alias].
type ImportStmt struct {
	base
	Item ImportItem
}

func (*ImportStmt) stmtNode() {}

// ImportItem names what an import binds.
type ImportItem struct {
	Module string
	Alias  string // bound name; equals Module if no "as" clause
}

// FromImportStmt imports one name from a module: from m import a [as b].
type FromImportStmt struct {
	base
	Module string
	Item   ImportItem // Module field holds the imported name here
}

func (*FromImportStmt) stmtNode() {}

// GlobalStmt declares names as referring to module globals.
type GlobalStmt struct {
	base
	Names []string
}

func (*GlobalStmt) stmtNode() {}

// PassStmt does nothing.
type PassStmt struct{ base }

func (*PassStmt) stmtNode() {}

// RaiseStmt raises a runtime error with the given message value.
type RaiseStmt struct {
	base
	Value Expr
}

func (*RaiseStmt) stmtNode() {}

// ---- Expressions ----

// NameExpr references a variable by name.
type NameExpr struct {
	base
	Name string
}

func (*NameExpr) exprNode() {}

// IntLit is an integer literal.
type IntLit struct {
	base
	Value int64
}

func (*IntLit) exprNode() {}

// FloatLit is a floating-point literal.
type FloatLit struct {
	base
	Value float64
}

func (*FloatLit) exprNode() {}

// StringLit is a string literal.
type StringLit struct {
	base
	Value string
}

func (*StringLit) exprNode() {}

// BoolLit is True or False.
type BoolLit struct {
	base
	Value bool
}

func (*BoolLit) exprNode() {}

// NoneLit is None.
type NoneLit struct{ base }

func (*NoneLit) exprNode() {}

// ListLit is a list display: [a, b, c].
type ListLit struct {
	base
	Elems []Expr
}

func (*ListLit) exprNode() {}

// TupleExpr is a parenthesized or bare tuple: (a, b) or a, b.
type TupleExpr struct {
	base
	Elems []Expr
}

func (*TupleExpr) exprNode() {}

// DictLit is a dict display: {k: v, ...}.
type DictLit struct {
	base
	Keys   []Expr
	Values []Expr
}

func (*DictLit) exprNode() {}

// BinExpr is a binary arithmetic or comparison expression.
type BinExpr struct {
	base
	Op    Kind
	Left  Expr
	Right Expr
}

func (*BinExpr) exprNode() {}

// UnaryExpr is -Operand.
type UnaryExpr struct {
	base
	Operand Expr
}

func (*UnaryExpr) exprNode() {}

// CallExpr calls Func with positional arguments.
type CallExpr struct {
	base
	Func Expr
	Args []Expr
}

func (*CallExpr) exprNode() {}

// AttrExpr accesses an attribute: X.Name.
type AttrExpr struct {
	base
	X    Expr
	Name string
}

func (*AttrExpr) exprNode() {}

// IndexExpr indexes a container: X[Index].
type IndexExpr struct {
	base
	X     Expr
	Index Expr
}

func (*IndexExpr) exprNode() {}

// LambdaExpr is an anonymous function expression.
type LambdaExpr struct {
	base
	Params []Param
	Body   Expr
}

func (*LambdaExpr) exprNode() {}

// Walk visits every node in the subtree rooted at n in depth-first
// pre-order, calling fn for each. If fn returns false the node's
// children are not visited.
func Walk(n Node, fn func(Node) bool) {
	if n != nil && fn(n) {
		eachChild(n, func(c Node) { Walk(c, fn) })
	}
}

// eachChild calls fn on each direct child of n, in a fixed order. It is
// the one place that knows a node's children: Walk and the parser's
// depth check are both built on it.
func eachChild(n Node, fn func(Node)) {
	stmts := func(body []Stmt) {
		for _, s := range body {
			fn(s)
		}
	}
	exprs := func(es ...Expr) {
		for _, e := range es {
			if e != nil {
				fn(e)
			}
		}
	}
	params := func(ps []Param) {
		for _, p := range ps {
			exprs(p.Default)
		}
	}
	switch v := n.(type) {
	case *Module:
		stmts(v.Body)
	case *DefStmt:
		params(v.Params)
		stmts(v.Body)
	case *ReturnStmt:
		exprs(v.Value)
	case *IfStmt:
		exprs(v.Cond)
		stmts(v.Body)
	case *WhileStmt:
		exprs(v.Cond)
		stmts(v.Body)
	case *ForStmt:
		exprs(v.Iter)
		stmts(v.Body)
	case *AssignStmt:
		exprs(v.Target, v.Value)
	case *ExprStmt:
		exprs(v.Value)
	case *RaiseStmt:
		exprs(v.Value)
	case *ListLit:
		exprs(v.Elems...)
	case *TupleExpr:
		exprs(v.Elems...)
	case *DictLit:
		exprs(v.Keys...)
		exprs(v.Values...)
	case *BinExpr:
		exprs(v.Left, v.Right)
	case *UnaryExpr:
		exprs(v.Operand)
	case *CallExpr:
		exprs(v.Func)
		exprs(v.Args...)
	case *AttrExpr:
		exprs(v.X)
	case *IndexExpr:
		exprs(v.X, v.Index)
	case *LambdaExpr:
		params(v.Params)
		exprs(v.Body)
	}
}
