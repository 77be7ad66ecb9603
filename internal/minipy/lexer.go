package minipy

import (
	"fmt"
	"strings"
)

// SyntaxError describes a lexing or parsing failure with its position.
type SyntaxError struct {
	Msg  string
	Line int
	Col  int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minipy: syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer converts source text into a token stream with INDENT/DEDENT
// tokens synthesized from leading whitespace, as in Python. The parser
// pulls one token at a time, so a syntax error early in a long input
// costs no more than the tokens before it.
type lexer struct {
	src     string
	pos     int
	line    int
	col     int
	indents []int // indentation stack; always starts with 0
	pending []Token
	parens  int // depth of (), [], {} — newlines are ignored inside
	atLine  bool
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1, indents: []int{0}, atLine: true}
}

func (lx *lexer) errf(format string, args ...any) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: lx.line, Col: lx.col}
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) peekByteAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// next returns the next token, or a *SyntaxError.
func (lx *lexer) next() (Token, error) {
	for {
		if len(lx.pending) > 0 {
			t := lx.pending[0]
			lx.pending = lx.pending[1:]
			return t, nil
		}
		if lx.atLine && lx.parens == 0 {
			if err := lx.handleIndent(); err != nil {
				return Token{}, err
			}
			if len(lx.pending) > 0 {
				continue
			}
		}
		lx.skipSpacesAndComments()
		if lx.pos >= len(lx.src) {
			return lx.finish(), nil
		}
		c := lx.peekByte()
		if c == '\n' {
			lx.advance()
			if lx.parens > 0 {
				continue
			}
			lx.atLine = true
			return Token{Kind: NEWLINE, Line: lx.line - 1, Col: lx.col}, nil
		}
		startLine, startCol := lx.line, lx.col
		switch {
		case isIdentStart(c):
			return lx.lexIdent(startLine, startCol), nil
		case isDigit(c):
			return lx.lexNumber(startLine, startCol), nil
		case c == '"' || c == '\'':
			return lx.lexString(startLine, startCol)
		}
		return lx.lexOperator(startLine, startCol)
	}
}

// finish emits the last NEWLINE, the trailing DEDENTs and the EOF token.
func (lx *lexer) finish() Token {
	if !lx.atLine {
		lx.atLine = true
		return Token{Kind: NEWLINE, Line: lx.line, Col: lx.col}
	}
	for len(lx.indents) > 1 {
		lx.indents = lx.indents[:len(lx.indents)-1]
		lx.pending = append(lx.pending, Token{Kind: DEDENT, Line: lx.line, Col: lx.col})
	}
	lx.pending = append(lx.pending, Token{Kind: EOF, Line: lx.line, Col: lx.col})
	t := lx.pending[0]
	lx.pending = lx.pending[1:]
	return t
}

// handleIndent measures the leading whitespace of the current line and
// emits INDENT/DEDENT tokens. Blank lines and comment-only lines are
// skipped entirely.
func (lx *lexer) handleIndent() error {
	for {
		width := 0
		for lx.pos < len(lx.src) {
			c := lx.peekByte()
			if c == ' ' {
				width++
				lx.advance()
			} else if c == '\t' {
				width += 8 - width%8
				lx.advance()
			} else {
				break
			}
		}
		if lx.pos >= len(lx.src) {
			// End of input at line start: leave atLine set so finish()
			// proceeds straight to DEDENT/EOF emission.
			return nil
		}
		c := lx.peekByte()
		if c == '\n' {
			lx.advance()
			continue // blank line
		}
		if c == '#' {
			lx.skipSpacesAndComments()
			continue
		}
		lx.atLine = false
		cur := lx.indents[len(lx.indents)-1]
		switch {
		case width > cur:
			lx.indents = append(lx.indents, width)
			lx.pending = append(lx.pending, Token{Kind: INDENT, Line: lx.line, Col: 1})
		case width < cur:
			for len(lx.indents) > 1 && lx.indents[len(lx.indents)-1] > width {
				lx.indents = lx.indents[:len(lx.indents)-1]
				lx.pending = append(lx.pending, Token{Kind: DEDENT, Line: lx.line, Col: 1})
			}
			if lx.indents[len(lx.indents)-1] != width {
				return lx.errf("unindent does not match any outer indentation level")
			}
		}
		return nil
	}
}

func (lx *lexer) skipSpacesAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		if c == ' ' || c == '\t' || c == '\r' {
			lx.advance()
		} else if c == '#' {
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		} else {
			return
		}
	}
}

func (lx *lexer) lexIdent(line, col int) Token {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
		lx.advance()
	}
	text := lx.src[start:lx.pos]
	if kw, ok := keywords[text]; ok {
		return Token{Kind: kw, Text: text, Line: line, Col: col}
	}
	return Token{Kind: IDENT, Text: text, Line: line, Col: col}
}

// lexNumber reads digits, an optional fraction and an optional
// exponent — every form Float.Repr prints.
func (lx *lexer) lexNumber(line, col int) Token {
	start := lx.pos
	kind := INT
	digits := func() {
		for isDigit(lx.peekByte()) {
			lx.advance()
		}
	}
	digits()
	if lx.peekByte() == '.' && isDigit(lx.peekByteAt(1)) {
		kind = FLOAT
		lx.advance()
		digits()
	}
	if c, sign := lx.peekByte(), lx.peekByteAt(1); (c == 'e' || c == 'E') &&
		(isDigit(sign) || (sign == '+' || sign == '-') && isDigit(lx.peekByteAt(2))) {
		kind = FLOAT
		lx.advance()
		if !isDigit(sign) {
			lx.advance()
		}
		digits()
	}
	return Token{Kind: kind, Text: lx.src[start:lx.pos], Line: line, Col: col}
}

// lexString reads a string in single or double quotes. The escapes are
// \n, \\, \" and \' — the forms quote writes, and either quote; any
// other is a syntax error rather than a silently different string.
func (lx *lexer) lexString(line, col int) (Token, error) {
	q := lx.advance()
	start := lx.pos
	var sb *strings.Builder // nil until the first escape
	for {
		if lx.pos >= len(lx.src) {
			return Token{}, lx.errf("unterminated string literal")
		}
		c := lx.advance()
		switch c {
		case q:
			text := lx.src[start : lx.pos-1]
			if sb != nil {
				text = sb.String()
			}
			return Token{Kind: STRING, Text: text, Line: line, Col: col}, nil
		case '\n':
			return Token{}, lx.errf("newline in string literal")
		case '\\':
			if sb == nil {
				sb = &strings.Builder{}
				sb.WriteString(lx.src[start : lx.pos-1])
			}
			if lx.pos >= len(lx.src) {
				return Token{}, lx.errf("unterminated string literal")
			}
			switch e := lx.advance(); e {
			case 'n':
				sb.WriteByte('\n')
			case '\\', '"', '\'':
				sb.WriteByte(e)
			default:
				return Token{}, lx.errf("unknown escape \\%c in string literal", e)
			}
		default:
			if sb != nil {
				sb.WriteByte(c)
			}
		}
	}
}

// quote renders s as a string literal that lexes back to s: a
// backslash, a double quote and a newline are escaped, and every other
// byte is written as it is.
func quote(s string) string {
	var sb strings.Builder
	sb.Grow(len(s) + 2)
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\', '"':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
	return sb.String()
}

func (lx *lexer) lexOperator(line, col int) (Token, error) {
	c := lx.advance()
	tok := func(k Kind) (Token, error) { return Token{Kind: k, Line: line, Col: col}, nil }
	// two is k2 when next follows, k1 otherwise.
	two := func(next byte, k2, k1 Kind) (Token, error) {
		if lx.peekByte() == next {
			lx.advance()
			return tok(k2)
		}
		return tok(k1)
	}
	switch c {
	case '(':
		lx.parens++
		return tok(LParen)
	case ')':
		lx.parens--
		return tok(RParen)
	case '[':
		lx.parens++
		return tok(LBracket)
	case ']':
		lx.parens--
		return tok(RBracket)
	case '{':
		lx.parens++
		return tok(LBrace)
	case '}':
		lx.parens--
		return tok(RBrace)
	case ',':
		return tok(Comma)
	case ':':
		return tok(Colon)
	case '.':
		return tok(Dot)
	case '+':
		return two('=', PlusAssign, Plus)
	case '-':
		return tok(Minus)
	case '*':
		return tok(Star)
	case '/':
		return two('/', SlashSlash, Slash)
	case '%':
		return tok(Percent)
	case '<':
		return two('=', Le, Lt)
	case '>':
		return two('=', Ge, Gt)
	case '=':
		return two('=', Eq, Assign)
	case '!':
		if lx.peekByte() == '=' {
			lx.advance()
			return tok(Ne)
		}
	}
	return Token{}, &SyntaxError{Msg: fmt.Sprintf("unexpected character %q", c), Line: line, Col: col}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
