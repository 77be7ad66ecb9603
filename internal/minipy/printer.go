package minipy

import (
	"fmt"
	"strconv"
	"strings"
)

// PrintModule renders a statement list back into parseable source text.
// Together with Walk, this is the "walk the AST" serialization path the
// paper describes for functions whose original source cannot be
// located: the AST is rendered to canonical source, shipped, and
// re-parsed on the worker.
func PrintModule(stmts []Stmt) string {
	var sb strings.Builder
	pr := printer{sb: &sb}
	pr.stmts(stmts, 0)
	return sb.String()
}

// PrintStmt renders a single statement (and its body) as source.
func PrintStmt(s Stmt) string { return PrintModule([]Stmt{s}) }

// PrintExpr renders an expression as source.
func PrintExpr(e Expr) string {
	var sb strings.Builder
	pr := printer{sb: &sb}
	pr.expr(e)
	return sb.String()
}

type printer struct {
	sb *strings.Builder
}

func (p *printer) stmts(stmts []Stmt, level int) {
	for _, s := range stmts {
		p.stmt(s, level)
	}
}

// line writes one line at the given indentation: its parts, strings
// written as they are and expressions printed.
func (p *printer) line(level int, parts ...any) {
	p.sb.WriteString(strings.Repeat("    ", level))
	for _, part := range parts {
		switch v := part.(type) {
		case string:
			p.sb.WriteString(v)
		case Expr:
			p.expr(v)
		}
	}
	p.sb.WriteByte('\n')
}

func (p *printer) stmt(s Stmt, level int) {
	switch st := s.(type) {
	case *DefStmt:
		p.sb.WriteString(strings.Repeat("    ", level) + "def " + st.Name + "(")
		p.params(st.Params)
		p.sb.WriteString("):\n")
		p.stmts(st.Body, level+1)
	case *ReturnStmt:
		if st.Value == nil {
			p.line(level, "return")
		} else {
			p.line(level, "return ", st.Value)
		}
	case *IfStmt:
		p.line(level, "if ", st.Cond, ":")
		p.stmts(st.Body, level+1)
	case *WhileStmt:
		p.line(level, "while ", st.Cond, ":")
		p.stmts(st.Body, level+1)
	case *ForStmt:
		p.line(level, "for "+st.Target+" in ", st.Iter, ":")
		p.stmts(st.Body, level+1)
	case *AssignStmt:
		p.line(level, st.Target, " "+st.Op.String()+" ", st.Value)
	case *ExprStmt:
		p.line(level, st.Value)
	case *ImportStmt:
		p.line(level, "import "+importItem(st.Item))
	case *FromImportStmt:
		p.line(level, "from "+st.Module+" import "+importItem(st.Item))
	case *GlobalStmt:
		p.line(level, "global "+strings.Join(st.Names, ", "))
	case *PassStmt:
		p.line(level, "pass")
	case *RaiseStmt:
		p.line(level, "raise ", st.Value)
	default:
		panic(fmt.Sprintf("minipy: cannot print %T", s))
	}
}

func importItem(it ImportItem) string {
	if it.Alias != it.Module {
		return it.Module + " as " + it.Alias
	}
	return it.Module
}

func (p *printer) params(params []Param) {
	for i, prm := range params {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.sb.WriteString(prm.Name)
		if prm.Default != nil {
			p.sb.WriteString("=")
			p.expr(prm.Default)
		}
	}
}

// defaultExpr unwraps an evaluated default back to its original
// expression for printing; if the value has no printable original (a
// default reconstructed from a pickle), it renders the value itself.
func defaultExpr(ed *evaluatedDefault) Expr {
	if ed.orig != nil {
		return ed.orig
	}
	if lit := valueToLiteral(ed.value); lit != nil {
		return lit
	}
	return &NoneLit{}
}

// valueToLiteral converts simple values back to literal expressions.
func valueToLiteral(v Value) Expr {
	switch x := v.(type) {
	case None:
		return &NoneLit{}
	case Bool:
		return &BoolLit{Value: bool(x)}
	case Int:
		return &IntLit{Value: int64(x)}
	case Float:
		return &FloatLit{Value: float64(x)}
	case Str:
		return &StringLit{Value: string(x)}
	case *List:
		if elems := literals(x.Elems); elems != nil {
			return &ListLit{Elems: elems}
		}
	case *Tuple:
		if elems := literals(x.Elems); elems != nil {
			return &TupleExpr{Elems: elems}
		}
	}
	return nil
}

// literals converts every value, or returns nil if one has no literal.
func literals(vs []Value) []Expr {
	out := make([]Expr, len(vs))
	for i, v := range vs {
		if out[i] = valueToLiteral(v); out[i] == nil {
			return nil
		}
	}
	return out
}

// expr prints e; every operator form is parenthesized, so the printed
// source parses back to the same tree whatever the precedences.
func (p *printer) expr(e Expr) {
	switch ex := e.(type) {
	case *NameExpr:
		p.sb.WriteString(ex.Name)
	case *IntLit:
		p.sb.WriteString(strconv.FormatInt(ex.Value, 10))
	case *FloatLit:
		p.sb.WriteString(Float(ex.Value).Repr())
	case *StringLit:
		p.sb.WriteString(quote(ex.Value))
	case *BoolLit:
		p.sb.WriteString(Bool(ex.Value).Repr())
	case *NoneLit:
		p.sb.WriteString("None")
	case *evaluatedDefault:
		p.expr(defaultExpr(ex))
	case *ListLit:
		p.sb.WriteByte('[')
		p.list(ex.Elems)
		p.sb.WriteByte(']')
	case *TupleExpr:
		p.sb.WriteByte('(')
		p.list(ex.Elems)
		if len(ex.Elems) == 1 {
			p.sb.WriteByte(',')
		}
		p.sb.WriteByte(')')
	case *DictLit:
		p.sb.WriteByte('{')
		for i := range ex.Keys {
			if i > 0 {
				p.sb.WriteString(", ")
			}
			p.expr(ex.Keys[i])
			p.sb.WriteString(": ")
			p.expr(ex.Values[i])
		}
		p.sb.WriteByte('}')
	case *BinExpr:
		p.sb.WriteByte('(')
		p.expr(ex.Left)
		p.sb.WriteString(" " + ex.Op.String() + " ")
		p.expr(ex.Right)
		p.sb.WriteByte(')')
	case *UnaryExpr:
		p.sb.WriteString("(-")
		p.expr(ex.Operand)
		p.sb.WriteByte(')')
	case *CallExpr:
		p.expr(ex.Func)
		p.sb.WriteByte('(')
		p.list(ex.Args)
		p.sb.WriteByte(')')
	case *AttrExpr:
		p.expr(ex.X)
		p.sb.WriteString("." + ex.Name)
	case *IndexExpr:
		p.expr(ex.X)
		p.sb.WriteByte('[')
		p.expr(ex.Index)
		p.sb.WriteByte(']')
	case *LambdaExpr:
		p.sb.WriteString("(lambda")
		if len(ex.Params) > 0 {
			p.sb.WriteByte(' ')
			p.params(ex.Params)
		}
		p.sb.WriteString(": ")
		p.expr(ex.Body)
		p.sb.WriteByte(')')
	default:
		panic(fmt.Sprintf("minipy: cannot print %T", e))
	}
}

func (p *printer) list(es []Expr) {
	for i, e := range es {
		if i > 0 {
			p.sb.WriteString(", ")
		}
		p.expr(e)
	}
}
