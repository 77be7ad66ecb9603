package minipy

import (
	"fmt"
	"strconv"
)

// maxDepth bounds how deep a parsed tree nests: a statement or
// expression inside maxDepth others is a syntax error. Everything that
// walks a tree — eval, the printer, the inspect walkers, pickling —
// recurses once per level, and source reaches a worker from peers it
// has not authenticated (pickled functions, task scripts, library
// sources), so no input may nest as deep as it is long. Left-associative
// chains count: a+b+c is three levels, not one. The deepest tree any
// workload in this repository builds is 9 levels
// (TestWorkloadsNestFarBelowTheBound).
const maxDepth = 200

// parser is a recursive-descent parser over the token stream, pulled
// one token at a time from the lexer.
type parser struct {
	lx  lexer
	tok Token
	// err is the lexer's error, if any; the token stream ends there.
	err error
	// lastNewline is the line the last NEWLINE taken ends: a def's body
	// ends on the line its last statement's newline closes.
	lastNewline int
	// nest counts the productions open on the parser's own stack. Every
	// tree level costs at most two of them in source the printer wrote
	// (one for the node, one for the parentheses around it), so 2 ×
	// maxDepth admits the printed form of every tree Parse returns.
	nest int
}

func newParser(src string) *parser {
	p := &parser{lx: newLexer(src)}
	p.load()
	return p
}

// Parse parses a complete MiniPy source file into a *Module.
func Parse(src string) (*Module, error) {
	p := newParser(src)
	mod := &Module{base: base{Line: 1}}
	for !p.at(EOF) {
		s, err := p.statement()
		if err != nil {
			return nil, p.fail(err)
		}
		mod.Body = append(mod.Body, s)
	}
	if err := p.finish(mod); err != nil {
		return nil, err
	}
	return mod, nil
}

// ParseExpr parses a single expression (used by eval and pickling of
// lambda sources).
func ParseExpr(src string) (Expr, error) {
	p := newParser(src)
	e, err := p.exprOrTuple()
	for err == nil && p.at(NEWLINE) {
		p.take()
	}
	if err == nil && !p.at(EOF) {
		err = p.errf("unexpected trailing tokens after expression")
	}
	if err != nil {
		return nil, p.fail(err)
	}
	if err := p.finish(e); err != nil {
		return nil, err
	}
	return e, nil
}

// fail reports the lexer's error in place of the parse error it caused.
func (p *parser) fail(err error) error {
	if p.err != nil {
		return p.err
	}
	return err
}

// finish checks a parsed tree against maxDepth, a level at a time; the
// chains and productions the parser bounded as it went cannot nest
// deeper than its stack, but their combination can.
func (p *parser) finish(root Node) error {
	if p.err != nil {
		return p.err
	}
	start := 1
	if _, ok := root.(*Module); ok {
		start = 0 // the module's statements are the first level
	}
	if tooDeep(root, start) {
		return &SyntaxError{Msg: fmt.Sprintf("nested deeper than %d levels", maxDepth), Line: 1, Col: 1}
	}
	return nil
}

// tooDeep reports whether some node of the tree under n, which sits at
// depth d, is deeper than maxDepth.
func tooDeep(n Node, d int) bool {
	if d > maxDepth {
		return true
	}
	deep := false
	eachChild(n, func(c Node) { deep = deep || tooDeep(c, d+1) })
	return deep
}

func (p *parser) at(k Kind) bool { return p.tok.Kind == k }

// take returns the current token and moves to the next.
func (p *parser) take() Token {
	t := p.tok
	if t.Kind == NEWLINE {
		p.lastNewline = t.Line
	}
	if t.Kind != EOF {
		p.load()
	}
	return t
}

// load reads the next token. A lexer error ends the stream: p.err keeps
// it, and the parser sees EOF.
func (p *parser) load() {
	var err error
	if p.tok, err = p.lx.next(); err != nil {
		p.err = err
		p.tok = Token{Kind: EOF, Line: p.lx.line, Col: p.lx.col}
	}
}

func (p *parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %v, found %v", k, p.tok)
	}
	return p.take(), nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: p.tok.Line, Col: p.tok.Col}
}

// enter opens a production that may recurse; leave closes it.
func (p *parser) enter() error {
	p.nest++
	if p.nest > 2*maxDepth {
		return p.errf("nested deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) leave() { p.nest-- }

// chain bounds a loop that wraps its result in one more node per turn:
// the n-th turn puts the first operand n levels down.
func (p *parser) chain(n int) error {
	if n > maxDepth {
		return p.errf("nested deeper than %d levels", maxDepth)
	}
	return nil
}

// block parses ": NEWLINE INDENT stmts DEDENT".
func (p *parser) block() ([]Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if _, err := p.expect(Colon); err != nil {
		return nil, err
	}
	if _, err := p.expect(NEWLINE); err != nil {
		return nil, err
	}
	if _, err := p.expect(INDENT); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.at(DEDENT) && !p.at(EOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	if p.at(DEDENT) {
		p.take()
	}
	return body, nil
}

func (p *parser) statement() (Stmt, error) {
	switch p.tok.Kind {
	case KwDef:
		return p.defStmt()
	case KwIf, KwWhile:
		t := p.take()
		cond, err := p.exprOrTuple()
		if err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		if t.Kind == KwIf {
			return &IfStmt{base: base{Line: t.Line}, Cond: cond, Body: body}, nil
		}
		return &WhileStmt{base: base{Line: t.Line}, Cond: cond, Body: body}, nil
	case KwFor:
		return p.forStmt()
	}
	s, err := p.simpleStatement()
	if err != nil {
		return nil, err
	}
	if !p.at(EOF) {
		if _, err := p.expect(NEWLINE); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) defStmt() (Stmt, error) {
	t := p.take() // def
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	params, err := p.paramList(RParen)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, p.errf("empty function body")
	}
	d := &DefStmt{base: base{Line: t.Line}, Name: name.Text, Params: params, Body: body, EndLine: p.lastNewline}
	if es, ok := body[0].(*ExprStmt); ok {
		if sl, ok := es.Value.(*StringLit); ok {
			d.Doc = sl.Value
		}
	}
	return d, nil
}

func (p *parser) paramList(end Kind) ([]Param, error) {
	var params []Param
	seenDefault := false
	for !p.at(end) {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		var def Expr
		if p.at(Assign) {
			p.take()
			def, err = p.expr()
			if err != nil {
				return nil, err
			}
			seenDefault = true
		} else if seenDefault {
			return nil, p.errf("non-default parameter %q follows default parameter", name.Text)
		}
		params = append(params, Param{Name: name.Text, Default: def})
		if !p.at(Comma) {
			break
		}
		p.take()
	}
	return params, nil
}

func (p *parser) forStmt() (Stmt, error) {
	t := p.take()
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KwIn); err != nil {
		return nil, err
	}
	iter, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ForStmt{base: base{Line: t.Line}, Target: name.Text, Iter: iter, Body: body}, nil
}

func (p *parser) simpleStatement() (Stmt, error) {
	t := p.tok
	switch t.Kind {
	case KwReturn:
		p.take()
		var val Expr
		if !p.at(NEWLINE) && !p.at(EOF) {
			var err error
			if val, err = p.exprOrTuple(); err != nil {
				return nil, err
			}
		}
		return &ReturnStmt{base: base{Line: t.Line}, Value: val}, nil
	case KwPass:
		p.take()
		return &PassStmt{base: base{Line: t.Line}}, nil
	case KwImport:
		p.take()
		item, err := p.importItem()
		if err != nil {
			return nil, err
		}
		return &ImportStmt{base: base{Line: t.Line}, Item: item}, nil
	case KwFrom:
		p.take()
		mod, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwImport); err != nil {
			return nil, err
		}
		item, err := p.importItem()
		if err != nil {
			return nil, err
		}
		return &FromImportStmt{base: base{Line: t.Line}, Module: mod.Text, Item: item}, nil
	case KwGlobal:
		p.take()
		var names []string
		for {
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			names = append(names, name.Text)
			if !p.at(Comma) {
				break
			}
			p.take()
		}
		return &GlobalStmt{base: base{Line: t.Line}, Names: names}, nil
	case KwRaise:
		p.take()
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &RaiseStmt{base: base{Line: t.Line}, Value: val}, nil
	}
	// Expression statement or assignment.
	lhs, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	if !p.at(Assign) && !p.at(PlusAssign) {
		return &ExprStmt{base: base{Line: t.Line}, Value: lhs}, nil
	}
	op := p.take().Kind
	if !assignable(lhs) {
		return nil, &SyntaxError{Msg: "cannot assign to this expression", Line: t.Line, Col: t.Col}
	}
	rhs, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{base: base{Line: t.Line}, Target: lhs, Op: op, Value: rhs}, nil
}

// importItem parses "name [as alias]".
func (p *parser) importItem() (ImportItem, error) {
	name, err := p.expect(IDENT)
	if err != nil {
		return ImportItem{}, err
	}
	item := ImportItem{Module: name.Text, Alias: name.Text}
	if p.at(KwAs) {
		p.take()
		alias, err := p.expect(IDENT)
		if err != nil {
			return ImportItem{}, err
		}
		item.Alias = alias.Text
	}
	return item, nil
}

func assignable(e Expr) bool {
	switch v := e.(type) {
	case *NameExpr, *IndexExpr:
		return true
	case *TupleExpr:
		for _, el := range v.Elems {
			if !assignable(el) {
				return false
			}
		}
		return true
	}
	return false
}

// ---- Expressions ----

// exprOrTuple parses an expression, collecting comma-separated
// expressions into a TupleExpr.
func (p *parser) exprOrTuple() (Expr, error) {
	first, err := p.expr()
	if err != nil || !p.at(Comma) {
		return first, err
	}
	elems := []Expr{first}
	for p.at(Comma) {
		p.take()
		if isExprEnd(p.tok.Kind) {
			break // trailing comma
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return &TupleExpr{base: base{Line: first.Pos()}, Elems: elems}, nil
}

func isExprEnd(k Kind) bool {
	switch k {
	case NEWLINE, EOF, DEDENT, RParen, RBracket, RBrace, Colon, Assign, PlusAssign:
		return true
	}
	return false
}

// expr parses a lambda or a conditional expression, the
// lowest-precedence forms.
func (p *parser) expr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.at(KwLambda) {
		t := p.take()
		params, err := p.paramList(Colon)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Colon); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &LambdaExpr{base: base{Line: t.Line}, Params: params, Body: body}, nil
	}
	return p.comparison()
}

// comparison parses one optional comparison of two sums.
func (p *parser) comparison() (Expr, error) {
	left, err := p.binary(arithOps, p.term)
	if err != nil {
		return nil, err
	}
	switch p.tok.Kind {
	case Lt, Gt, Le, Ge, Eq, Ne:
		t := p.take()
		right, err := p.binary(arithOps, p.term)
		if err != nil {
			return nil, err
		}
		return &BinExpr{base: base{Line: t.Line}, Op: t.Kind, Left: left, Right: right}, nil
	}
	return left, nil
}

var (
	arithOps = []Kind{Plus, Minus}
	termOps  = []Kind{Star, Slash, SlashSlash, Percent}
)

func (p *parser) term() (Expr, error) { return p.binary(termOps, p.unary) }

// binary parses a left-associative chain of operand (ops operand)*.
func (p *parser) binary(ops []Kind, operand func() (Expr, error)) (Expr, error) {
	left, err := operand()
	if err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		t := p.tok
		if !isOneOf(t.Kind, ops) {
			return left, nil
		}
		if err := p.chain(n); err != nil {
			return nil, err
		}
		p.take()
		right, err := operand()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{base: base{Line: t.Line}, Op: t.Kind, Left: left, Right: right}
	}
}

func isOneOf(k Kind, ks []Kind) bool {
	for _, x := range ks {
		if k == x {
			return true
		}
	}
	return false
}

// unary parses any number of leading minus signs, then a postfix
// expression.
func (p *parser) unary() (Expr, error) {
	var signs []Token
	for p.at(Minus) {
		if err := p.chain(len(signs) + 1); err != nil {
			return nil, err
		}
		signs = append(signs, p.take())
	}
	e, err := p.postfix()
	if err != nil {
		return nil, err
	}
	for i := len(signs) - 1; i >= 0; i-- {
		e = &UnaryExpr{base: base{Line: signs[i].Line}, Operand: e}
	}
	return e, nil
}

// postfix parses a primary followed by calls, attribute accesses and
// indexes.
func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		t := p.tok
		if t.Kind != LParen && t.Kind != Dot && t.Kind != LBracket {
			return e, nil
		}
		if err := p.chain(n); err != nil {
			return nil, err
		}
		p.take()
		switch t.Kind {
		case LParen:
			args, err := p.exprList(RParen)
			if err != nil {
				return nil, err
			}
			e = &CallExpr{base: base{Line: t.Line}, Func: e, Args: args}
		case Dot:
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			e = &AttrExpr{base: base{Line: t.Line}, X: e, Name: name.Text}
		case LBracket:
			index, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			e = &IndexExpr{base: base{Line: t.Line}, X: e, Index: index}
		}
	}
}

// exprList parses comma-separated expressions up to and including end.
func (p *parser) exprList(end Kind) ([]Expr, error) {
	var elems []Expr
	for !p.at(end) {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if !p.at(Comma) {
			break
		}
		p.take()
	}
	_, err := p.expect(end)
	return elems, err
}

func (p *parser) primary() (Expr, error) {
	t := p.tok
	switch t.Kind {
	case IDENT:
		p.take()
		return &NameExpr{base: base{Line: t.Line}, Name: t.Text}, nil
	case INT:
		p.take()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &SyntaxError{Msg: fmt.Sprintf("invalid integer literal %q", t.Text), Line: t.Line, Col: t.Col}
		}
		return &IntLit{base: base{Line: t.Line}, Value: v}, nil
	case FLOAT:
		p.take()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, &SyntaxError{Msg: fmt.Sprintf("invalid float literal %q", t.Text), Line: t.Line, Col: t.Col}
		}
		return &FloatLit{base: base{Line: t.Line}, Value: v}, nil
	case STRING:
		p.take()
		return &StringLit{base: base{Line: t.Line}, Value: t.Text}, nil
	case KwTrue, KwFalse:
		p.take()
		return &BoolLit{base: base{Line: t.Line}, Value: t.Kind == KwTrue}, nil
	case KwNone:
		p.take()
		return &NoneLit{base: base{Line: t.Line}}, nil
	case LParen:
		p.take()
		if p.at(RParen) {
			p.take()
			return &TupleExpr{base: base{Line: t.Line}}, nil
		}
		e, err := p.exprOrTuple()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	case LBracket:
		p.take()
		elems, err := p.exprList(RBracket)
		if err != nil {
			return nil, err
		}
		return &ListLit{base: base{Line: t.Line}, Elems: elems}, nil
	case LBrace:
		p.take()
		d := &DictLit{base: base{Line: t.Line}}
		for !p.at(RBrace) {
			k, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Keys = append(d.Keys, k)
			d.Values = append(d.Values, v)
			if !p.at(Comma) {
				break
			}
			p.take()
		}
		if _, err := p.expect(RBrace); err != nil {
			return nil, err
		}
		return d, nil
	}
	return nil, p.errf("unexpected token %v in expression", t)
}
