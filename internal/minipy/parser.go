package minipy

import (
	"fmt"
	"strconv"
)

// parser is a recursive-descent parser over the lexed token stream.
type parser struct {
	src  string
	toks []Token
	pos  int
}

// Parse parses a complete MiniPy source file into a *Module.
func Parse(src string) (*Module, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	mod := &Module{base: base{Line: 1}}
	for !p.at(EOF) {
		p.skipNewlines()
		if p.at(EOF) {
			break
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		mod.Body = append(mod.Body, s)
	}
	return mod, nil
}

// ParseExpr parses a single expression (used by eval and pickling of
// lambda sources).
func ParseExpr(src string) (Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if !p.at(EOF) {
		return nil, p.errf("unexpected trailing tokens after expression")
	}
	return e, nil
}

func (p *parser) cur() Token     { return p.toks[p.pos] }
func (p *parser) at(k Kind) bool { return p.toks[p.pos].Kind == k }

func (p *parser) peek(k Kind) bool {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1].Kind == k
	}
	return false
}

func (p *parser) take() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %v, found %v", k, p.cur())
	}
	return p.take(), nil
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

func (p *parser) skipNewlines() {
	for p.at(NEWLINE) || p.at(Semicolon) {
		p.take()
	}
}

func (p *parser) endOfStmt() error {
	if p.at(NEWLINE) || p.at(Semicolon) {
		p.take()
		return nil
	}
	if p.at(EOF) || p.at(DEDENT) {
		return nil
	}
	return p.errf("expected end of statement, found %v", p.cur())
}

// block parses ": NEWLINE INDENT stmts DEDENT" or a single-line suite
// ": stmt".
func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(Colon); err != nil {
		return nil, err
	}
	if !p.at(NEWLINE) {
		// Single-line suite: one or more simple statements on this line.
		var body []Stmt
		for {
			s, err := p.simpleStatement()
			if err != nil {
				return nil, err
			}
			body = append(body, s)
			if p.at(Semicolon) {
				p.take()
				if p.at(NEWLINE) || p.at(EOF) {
					break
				}
				continue
			}
			break
		}
		if p.at(NEWLINE) {
			p.take()
		}
		return body, nil
	}
	p.take() // NEWLINE
	if _, err := p.expect(INDENT); err != nil {
		return nil, err
	}
	var body []Stmt
	for !p.at(DEDENT) && !p.at(EOF) {
		p.skipNewlines()
		if p.at(DEDENT) || p.at(EOF) {
			break
		}
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
	switch p.cur().Kind {
	case KwDef:
		return p.defStmt()
	case KwIf:
		return p.ifStmt()
	case KwWhile:
		return p.whileStmt()
	case KwFor:
		return p.forStmt()
	case KwTry:
		return p.tryStmt()
	default:
		s, err := p.simpleStatement()
		if err != nil {
			return nil, err
		}
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		return s, nil
	}
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
	params, err := p.paramList(RParen, true)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if p.at(Arrow) { // optional return annotation, parsed and discarded
		p.take()
		if _, err := p.expr(); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, p.errf("empty function body")
	}
	d := &DefStmt{base: base{Line: t.Line}, Name: name.Text, Params: params, Body: body,
		SrcStart: -1, SrcEnd: -1}
	if es, ok := body[0].(*ExprStmt); ok {
		if sl, ok := es.Value.(*StringLit); ok {
			d.Doc = sl.Value
		}
	}
	// The def ends where the newline closing its last token is: bracketed
	// or triple-quoted text carries a statement past the line it starts on.
	j := p.pos - 1
	for k := p.toks[j].Kind; k == NEWLINE || k == DEDENT || k == Semicolon; k = p.toks[j].Kind {
		j--
	}
	d.EndLine = p.toks[j].Line
	if p.toks[j+1].Kind == NEWLINE {
		d.EndLine = p.toks[j+1].Line
	}
	return d, nil
}

func (p *parser) paramList(end Kind, annotations bool) ([]Param, error) {
	var params []Param
	seenDefault := false
	for !p.at(end) {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		var def Expr
		if annotations && p.at(Colon) { // type annotation, parsed and discarded
			p.take()
			if _, err := p.expr(); err != nil {
				return nil, err
			}
		}
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
		if p.at(Comma) {
			p.take()
			continue
		}
		break
	}
	return params, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	t := p.take() // if or elif
	cond, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &IfStmt{base: base{Line: t.Line}, Cond: cond, Body: body}
	p.skipBlankBeforeClause()
	switch p.cur().Kind {
	case KwElif:
		els, err := p.ifStmt()
		if err != nil {
			return nil, err
		}
		node.Else = []Stmt{els}
	case KwElse:
		p.take()
		els, err := p.block()
		if err != nil {
			return nil, err
		}
		node.Else = els
	}
	return node, nil
}

// skipBlankBeforeClause consumes stray NEWLINEs that can precede an
// elif/else/except/finally clause after a DEDENT.
func (p *parser) skipBlankBeforeClause() {
	for p.at(NEWLINE) {
		k := p.toks[p.pos+1].Kind
		if k == KwElif || k == KwElse || k == KwExcept || k == KwFinally {
			p.take()
			continue
		}
		return
	}
}

func (p *parser) whileStmt() (Stmt, error) {
	t := p.take()
	cond, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{base: base{Line: t.Line}, Cond: cond, Body: body}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	t := p.take()
	var targets []string
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		targets = append(targets, name.Text)
		if p.at(Comma) {
			p.take()
			continue
		}
		break
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
	return &ForStmt{base: base{Line: t.Line}, Targets: targets, Iter: iter, Body: body}, nil
}

func (p *parser) tryStmt() (Stmt, error) {
	t := p.take()
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &TryStmt{base: base{Line: t.Line}, Body: body}
	p.skipBlankBeforeClause()
	if p.at(KwExcept) {
		p.take()
		if p.at(IDENT) { // "except Exception" or "except Exception as e"
			p.take()
			if p.at(KwAs) {
				p.take()
				name, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				node.ErrName = name.Text
			}
		}
		exc, err := p.block()
		if err != nil {
			return nil, err
		}
		node.Except = exc
	}
	p.skipBlankBeforeClause()
	if p.at(KwFinally) {
		p.take()
		fin, err := p.block()
		if err != nil {
			return nil, err
		}
		node.Finally = fin
	}
	if node.Except == nil && node.Finally == nil {
		return nil, p.errf("try statement must have except or finally clause")
	}
	return node, nil
}

func (p *parser) simpleStatement() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case KwReturn:
		p.take()
		var val Expr
		if !p.at(NEWLINE) && !p.at(EOF) && !p.at(Semicolon) && !p.at(DEDENT) {
			var err error
			val, err = p.exprOrTuple()
			if err != nil {
				return nil, err
			}
		}
		return &ReturnStmt{base: base{Line: t.Line}, Value: val}, nil
	case KwPass:
		p.take()
		return &PassStmt{base: base{Line: t.Line}}, nil
	case KwBreak:
		p.take()
		return &BreakStmt{base: base{Line: t.Line}}, nil
	case KwContinue:
		p.take()
		return &ContinueStmt{base: base{Line: t.Line}}, nil
	case KwImport:
		return p.importStmt()
	case KwFrom:
		return p.fromImportStmt()
	case KwGlobal:
		p.take()
		var names []string
		for {
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			names = append(names, name.Text)
			if p.at(Comma) {
				p.take()
				continue
			}
			break
		}
		return &GlobalStmt{base: base{Line: t.Line}, Names: names}, nil
	case KwDel:
		p.take()
		target, err := p.postfixExprFromPrimary()
		if err != nil {
			return nil, err
		}
		return &DelStmt{base: base{Line: t.Line}, Target: target}, nil
	case KwRaise:
		p.take()
		var val Expr
		if !p.at(NEWLINE) && !p.at(EOF) && !p.at(Semicolon) && !p.at(DEDENT) {
			var err error
			val, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		return &RaiseStmt{base: base{Line: t.Line}, Value: val}, nil
	case KwAssert:
		p.take()
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		var msg Expr
		if p.at(Comma) {
			p.take()
			msg, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		return &AssertStmt{base: base{Line: t.Line}, Cond: cond, Msg: msg}, nil
	}
	// Expression statement or assignment.
	lhs, err := p.exprOrTuple()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign:
		op := p.take().Kind
		if err := checkAssignable(lhs); err != nil {
			return nil, &SyntaxError{Msg: err.Error(), Line: t.Line, Col: t.Col}
		}
		rhs, err := p.exprOrTuple()
		if err != nil {
			return nil, err
		}
		// Chained assignment a = b = expr.
		for p.at(Assign) && op == Assign {
			p.take()
			if err := checkAssignable(rhs); err != nil {
				return nil, &SyntaxError{Msg: err.Error(), Line: t.Line, Col: t.Col}
			}
			next, err := p.exprOrTuple()
			if err != nil {
				return nil, err
			}
			// Desugar "a = b = v" into "b = v; a = b" is complex; treat the
			// middle expression as an additional target by nesting.
			inner := &AssignStmt{base: base{Line: t.Line}, Target: rhs, Op: Assign, Value: next}
			_ = inner
			rhs = next
		}
		return &AssignStmt{base: base{Line: t.Line}, Target: lhs, Op: op, Value: rhs}, nil
	}
	return &ExprStmt{base: base{Line: t.Line}, Value: lhs}, nil
}

func checkAssignable(e Expr) error {
	switch v := e.(type) {
	case *NameExpr, *AttrExpr, *IndexExpr:
		return nil
	case *TupleExpr:
		for _, el := range v.Elems {
			if err := checkAssignable(el); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("cannot assign to this expression")
}

func (p *parser) importStmt() (Stmt, error) {
	t := p.take() // import
	var items []ImportItem
	for {
		name, err := p.dottedName()
		if err != nil {
			return nil, err
		}
		alias := name
		if p.at(KwAs) {
			p.take()
			a, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			alias = a.Text
		}
		items = append(items, ImportItem{Module: name, Alias: alias})
		if p.at(Comma) {
			p.take()
			continue
		}
		break
	}
	return &ImportStmt{base: base{Line: t.Line}, Items: items}, nil
}

func (p *parser) fromImportStmt() (Stmt, error) {
	t := p.take() // from
	mod, err := p.dottedName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KwImport); err != nil {
		return nil, err
	}
	var items []ImportItem
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		alias := name.Text
		if p.at(KwAs) {
			p.take()
			a, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			alias = a.Text
		}
		items = append(items, ImportItem{Module: name.Text, Alias: alias})
		if p.at(Comma) {
			p.take()
			continue
		}
		break
	}
	return &FromImportStmt{base: base{Line: t.Line}, Module: mod, Items: items}, nil
}

func (p *parser) dottedName() (string, error) {
	name, err := p.expect(IDENT)
	if err != nil {
		return "", err
	}
	full := name.Text
	for p.at(Dot) {
		p.take()
		part, err := p.expect(IDENT)
		if err != nil {
			return "", err
		}
		full += "." + part.Text
	}
	return full, nil
}

// ---- Expressions ----

// exprOrTuple parses an expression, collecting comma-separated
// expressions into a TupleExpr.
func (p *parser) exprOrTuple() (Expr, error) {
	first, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.at(Comma) {
		return first, nil
	}
	elems := []Expr{first}
	for p.at(Comma) {
		p.take()
		if isExprEnd(p.cur().Kind) {
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
	case NEWLINE, EOF, DEDENT, RParen, RBracket, RBrace, Colon, Assign, Semicolon:
		return true
	}
	return false
}

// expr parses a conditional expression (the lowest-precedence form).
func (p *parser) expr() (Expr, error) {
	if p.at(KwLambda) {
		return p.lambda()
	}
	e, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if p.at(KwIf) {
		t := p.take()
		cond, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(KwElse); err != nil {
			return nil, err
		}
		els, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &CondExpr{base: base{Line: t.Line}, Cond: cond, Then: e, Else: els}, nil
	}
	return e, nil
}

func (p *parser) lambda() (Expr, error) {
	t := p.take() // lambda
	params, err := p.paramList(Colon, false)
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

func (p *parser) orExpr() (Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(KwOr) {
		t := p.take()
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &BoolExpr{base: base{Line: t.Line}, Op: KwOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) andExpr() (Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.at(KwAnd) {
		t := p.take()
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = &BoolExpr{base: base{Line: t.Line}, Op: KwAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.at(KwNot) {
		t := p.take()
		operand, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{base: base{Line: t.Line}, Op: KwNot, Operand: operand}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	left, err := p.arith()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case Lt, Gt, Le, Ge, Eq, Ne:
			t := p.take()
			right, err := p.arith()
			if err != nil {
				return nil, err
			}
			left = &BinExpr{base: base{Line: t.Line}, Op: t.Kind, Left: left, Right: right}
		case KwIn:
			t := p.take()
			right, err := p.arith()
			if err != nil {
				return nil, err
			}
			left = &InExpr{base: base{Line: t.Line}, X: left, Container: right}
		case KwNot:
			if !p.peek(KwIn) {
				return left, nil
			}
			t := p.take() // not
			p.take()      // in
			right, err := p.arith()
			if err != nil {
				return nil, err
			}
			left = &InExpr{base: base{Line: t.Line}, X: left, Container: right, Not: true}
		default:
			return left, nil
		}
	}
}

func (p *parser) arith() (Expr, error) {
	left, err := p.term()
	if err != nil {
		return nil, err
	}
	for p.at(Plus) || p.at(Minus) {
		t := p.take()
		right, err := p.term()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{base: base{Line: t.Line}, Op: t.Kind, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) term() (Expr, error) {
	left, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.at(Star) || p.at(Slash) || p.at(SlashSlash) || p.at(Percent) {
		t := p.take()
		right, err := p.factor()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{base: base{Line: t.Line}, Op: t.Kind, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) factor() (Expr, error) {
	if p.at(Minus) || p.at(Plus) {
		t := p.take()
		operand, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{base: base{Line: t.Line}, Op: t.Kind, Operand: operand}, nil
	}
	return p.power()
}

func (p *parser) power() (Expr, error) {
	left, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if p.at(StarStar) {
		t := p.take()
		right, err := p.factor() // right-associative
		if err != nil {
			return nil, err
		}
		return &BinExpr{base: base{Line: t.Line}, Op: StarStar, Left: left, Right: right}, nil
	}
	return left, nil
}

func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	return p.postfixOps(e)
}

// postfixExprFromPrimary is like postfix but exposed for del targets.
func (p *parser) postfixExprFromPrimary() (Expr, error) { return p.postfix() }

func (p *parser) postfixOps(e Expr) (Expr, error) {
	for {
		switch p.cur().Kind {
		case LParen:
			t := p.take()
			var args []Expr
			var kwargs []KwArg
			for !p.at(RParen) {
				if p.at(IDENT) && p.peek(Assign) {
					name := p.take()
					p.take() // =
					val, err := p.expr()
					if err != nil {
						return nil, err
					}
					kwargs = append(kwargs, KwArg{Name: name.Text, Value: val})
				} else {
					if len(kwargs) > 0 {
						return nil, p.errf("positional argument follows keyword argument")
					}
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
				}
				if p.at(Comma) {
					p.take()
					continue
				}
				break
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			e = &CallExpr{base: base{Line: t.Line}, Func: e, Args: args, KwArgs: kwargs}
		case Dot:
			t := p.take()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			e = &AttrExpr{base: base{Line: t.Line}, X: e, Name: name.Text}
		case LBracket:
			t := p.take()
			var lo, hi Expr
			var err error
			isSlice := false
			if !p.at(Colon) {
				lo, err = p.expr()
				if err != nil {
					return nil, err
				}
			}
			if p.at(Colon) {
				isSlice = true
				p.take()
				if !p.at(RBracket) {
					hi, err = p.expr()
					if err != nil {
						return nil, err
					}
				}
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			if isSlice {
				e = &SliceExpr{base: base{Line: t.Line}, X: e, Lo: lo, Hi: hi}
			} else {
				e = &IndexExpr{base: base{Line: t.Line}, X: e, Index: lo}
			}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case IDENT:
		p.take()
		return &NameExpr{base: base{Line: t.Line}, Name: t.Text}, nil
	case INT:
		p.take()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("invalid integer literal %q", t.Text)
		}
		return &IntLit{base: base{Line: t.Line}, Value: v}, nil
	case FLOAT:
		p.take()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("invalid float literal %q", t.Text)
		}
		return &FloatLit{base: base{Line: t.Line}, Value: v}, nil
	case STRING:
		p.take()
		val := t.Text
		// Adjacent string literals concatenate.
		for p.at(STRING) {
			val += p.take().Text
		}
		return &StringLit{base: base{Line: t.Line}, Value: val}, nil
	case KwTrue:
		p.take()
		return &BoolLit{base: base{Line: t.Line}, Value: true}, nil
	case KwFalse:
		p.take()
		return &BoolLit{base: base{Line: t.Line}, Value: false}, nil
	case KwNone:
		p.take()
		return &NoneLit{base: base{Line: t.Line}}, nil
	case KwLambda:
		return p.lambda()
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
		var elems []Expr
		for !p.at(RBracket) {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.at(Comma) {
				p.take()
				continue
			}
			break
		}
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
		return &ListLit{base: base{Line: t.Line}, Elems: elems}, nil
	case LBrace:
		p.take()
		var keys, values []Expr
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
			keys = append(keys, k)
			values = append(values, v)
			if p.at(Comma) {
				p.take()
				continue
			}
			break
		}
		if _, err := p.expect(RBrace); err != nil {
			return nil, err
		}
		return &DictLit{base: base{Line: t.Line}, Keys: keys, Values: values}, nil
	}
	return nil, p.errf("unexpected token %v in expression", t)
}
