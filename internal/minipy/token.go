// Package minipy implements a small dynamic scripting language with
// Python-like syntax: first-class functions, closures, lambdas, modules,
// and an import system. It exists to give this Go reproduction the same
// problem the paper faces in Python — functions whose code and context
// are not statically known and must be discovered, serialized, and
// reconstructed on remote workers.
//
// The language is the subset the paper's mechanisms and this repo's
// workloads use, and no more; DESIGN.md §2 lists it.
package minipy

import "fmt"

// Kind identifies a lexical token class.
type Kind int

// Token kinds. Keywords and operators each get their own kind so the
// parser can switch on a single integer.
const (
	EOF Kind = iota
	NEWLINE
	INDENT
	DEDENT

	IDENT
	INT
	FLOAT
	STRING

	// Keywords.
	KwDef
	KwReturn
	KwIf
	KwWhile
	KwFor
	KwIn
	KwPass
	KwImport
	KwFrom
	KwAs
	KwGlobal
	KwLambda
	KwTrue
	KwFalse
	KwNone
	KwRaise

	// Punctuation and operators.
	LParen
	RParen
	LBracket
	RBracket
	LBrace
	RBrace
	Comma
	Colon
	Dot
	Assign
	PlusAssign
	Plus
	Minus
	Star
	Slash
	SlashSlash
	Percent
	Lt
	Gt
	Le
	Ge
	Eq
	Ne
)

var kindNames = map[Kind]string{
	EOF: "EOF", NEWLINE: "NEWLINE", INDENT: "INDENT", DEDENT: "DEDENT",
	IDENT: "IDENT", INT: "INT", FLOAT: "FLOAT", STRING: "STRING",
	KwDef: "def", KwReturn: "return", KwIf: "if",
	KwWhile: "while", KwFor: "for", KwIn: "in", KwPass: "pass",
	KwImport: "import", KwFrom: "from", KwAs: "as", KwGlobal: "global",
	KwLambda: "lambda", KwTrue: "True", KwFalse: "False", KwNone: "None",
	KwRaise: "raise",
	LParen:  "(", RParen: ")", LBracket: "[", RBracket: "]",
	LBrace: "{", RBrace: "}", Comma: ",", Colon: ":",
	Dot: ".", Assign: "=", PlusAssign: "+=",
	Plus: "+", Minus: "-", Star: "*", Slash: "/",
	SlashSlash: "//", Percent: "%",
	Lt: "<", Gt: ">", Le: "<=", Ge: ">=", Eq: "==", Ne: "!=",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"def": KwDef, "return": KwReturn, "if": KwIf,
	"while": KwWhile, "for": KwFor, "in": KwIn, "pass": KwPass,
	"import": KwImport, "from": KwFrom, "as": KwAs, "global": KwGlobal,
	"lambda": KwLambda, "True": KwTrue, "False": KwFalse, "None": KwNone,
	"raise": KwRaise,
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind Kind
	Text string // literal text for IDENT/INT/FLOAT/STRING
	Line int    // 1-based source line
	Col  int    // 1-based source column
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, FLOAT:
		return t.Text
	case STRING:
		return quote(t.Text)
	default:
		return t.Kind.String()
	}
}
