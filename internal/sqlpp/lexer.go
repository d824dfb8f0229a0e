package sqlpp

import (
	"fmt"
	"strings"
)

// Lexer tokenizes SQL++ (and AQL) source text.
type Lexer struct {
	src  string
	pos  int
	line int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src, line: 1} }

// SyntaxError reports a lexical or parse error with position.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at line %d: %s", e.Line, e.Msg)
}

func (lx *Lexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: lx.line, Msg: fmt.Sprintf(format, args...)}
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: lx.pos, Line: lx.line}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case isIdentStart(c):
		lx.pos++
		for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
			lx.pos++
		}
		word := lx.src[start:lx.pos]
		if kw, ok := keyword(word); ok {
			return Token{Kind: TokKeyword, Text: kw, Pos: start, Line: lx.line}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start, Line: lx.line}, nil
	case c >= '0' && c <= '9':
		return lx.lexNumber()
	case c == '"' || c == '\'':
		return lx.lexString(c)
	case c == '`':
		// Backquoted identifier.
		lx.pos++
		s := strings.IndexByte(lx.src[lx.pos:], '`')
		if s < 0 {
			return Token{}, lx.errf("unterminated quoted identifier")
		}
		word := lx.src[lx.pos : lx.pos+s]
		lx.pos += s + 1
		tok := Token{Kind: TokQuotedIdent, Text: word, Pos: start, Line: lx.line}
		lx.line += strings.Count(word, "\n")
		return tok, nil
	}
	// Operators, longest first; the text is the operator's span.
	if lx.pos+1 < len(lx.src) {
		switch op := lx.src[lx.pos : lx.pos+2]; op {
		case "<=", ">=", "!=", "<>", "||", "{{", "}}":
			lx.pos += 2
			return Token{Kind: TokOp, Text: op, Pos: start, Line: lx.line}, nil
		}
	}
	if strings.IndexByte("+-*/%=<>().,;:[]{}?@^", c) >= 0 {
		lx.pos++
		return Token{Kind: TokOp, Text: lx.src[start:lx.pos], Pos: start, Line: lx.line}, nil
	}
	return Token{}, lx.errf("unexpected character %q", c)
}

func (lx *Lexer) lexNumber() (Token, error) {
	start := lx.pos
	isFloat := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c >= '0' && c <= '9' {
			lx.pos++
		} else if c == '.' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9' {
			isFloat = true
			lx.pos++
		} else if c == 'e' || c == 'E' {
			isFloat = true
			lx.pos++
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
				lx.pos++
			}
		} else {
			break
		}
	}
	kind := TokInt
	if isFloat {
		kind = TokFloat
	}
	return Token{Kind: kind, Text: lx.src[start:lx.pos], Pos: start, Line: lx.line}, nil
}

// lexString reads a quoted literal. Its text is the span between the quotes
// until an escape is seen; from then on it is built in sb, a run of plain
// bytes at a time, so a literal is unescaped once.
func (lx *Lexer) lexString(quote byte) (Token, error) {
	start := lx.pos
	lx.pos++
	run := lx.pos
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		switch c := lx.src[lx.pos]; c {
		case quote:
			text := lx.src[run:lx.pos]
			if sb.Len() > 0 {
				sb.WriteString(text)
				text = sb.String()
			}
			lx.pos++
			return Token{Kind: TokString, Text: text, Pos: start, Line: lx.line}, nil
		case '\\':
			sb.WriteString(lx.src[run:lx.pos])
			lx.pos += 2
			if lx.pos > len(lx.src) {
				return Token{}, lx.errf("unterminated string")
			}
			e := lx.src[lx.pos-1]
			i := strings.IndexByte("ntr\\\"'`/", e)
			if i < 0 {
				return Token{}, lx.errf("invalid escape \\%c", e)
			}
			sb.WriteByte("\n\t\r\\\"'`/"[i])
			run = lx.pos
		case '\n':
			return Token{}, lx.errf("newline in string literal")
		default:
			lx.pos++
		}
	}
	return Token{}, lx.errf("unterminated string")
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			lx.pos += 2
			for lx.pos+1 < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/') {
				if lx.src[lx.pos] == '\n' {
					lx.line++
				}
				lx.pos++
			}
			lx.pos += 2
		default:
			return
		}
	}
}

// keyword returns the canonical text of word if it is a keyword, in any
// case; word is folded to upper case in a buffer on the stack.
func keyword(word string) (string, bool) {
	var buf [9]byte // the longest keyword: DATAVERSE, SATISFIES
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}
