package sqlpp

import (
	"fmt"
	"strings"
)

// RefLexer is the SQL++ lexer as it stood before tokens became spans of the
// source, kept verbatim but for its names (SyntaxError is the package's own).
// FuzzLexerMatchesReference holds Lexer to it: for any input both give the
// same tokens and the same error.
type RefLexer struct {
	src  string
	pos  int
	line int
}

// NewRefLexer creates a lexer over src.
func NewRefLexer(src string) *RefLexer { return &RefLexer{src: src, line: 1} }

func (lx *RefLexer) errf(format string, args ...any) error {
	return &SyntaxError{Line: lx.line, Msg: fmt.Sprintf(format, args...)}
}

// Next returns the next token.
func (lx *RefLexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: lx.pos, Line: lx.line}, nil
	}
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case refIsIdentStart(c):
		lx.pos++
		for lx.pos < len(lx.src) && refIsIdentPart(lx.src[lx.pos]) {
			lx.pos++
		}
		word := lx.src[start:lx.pos]
		up := strings.ToUpper(word)
		if IsKeyword(up) {
			return Token{Kind: TokKeyword, Text: up, Pos: start, Line: lx.line}, nil
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
		return Token{Kind: TokQuotedIdent, Text: word, Pos: start, Line: lx.line}, nil
	}
	// Operators, longest first.
	for _, op := range []string{"<=", ">=", "!=", "<>", "||", "{{", "}}"} {
		if strings.HasPrefix(lx.src[lx.pos:], op) {
			lx.pos += len(op)
			return Token{Kind: TokOp, Text: op, Pos: start, Line: lx.line}, nil
		}
	}
	single := "+-*/%=<>().,;:[]{}?@^"
	if strings.IndexByte(single, c) >= 0 {
		lx.pos++
		return Token{Kind: TokOp, Text: string(c), Pos: start, Line: lx.line}, nil
	}
	return Token{}, lx.errf("unexpected character %q", c)
}

func (lx *RefLexer) lexNumber() (Token, error) {
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

func (lx *RefLexer) lexString(quote byte) (Token, error) {
	start := lx.pos
	lx.pos++
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch c {
		case quote:
			lx.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start, Line: lx.line}, nil
		case '\\':
			lx.pos++
			if lx.pos >= len(lx.src) {
				return Token{}, lx.errf("unterminated string")
			}
			e := lx.src[lx.pos]
			lx.pos++
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\', '"', '\'', '`', '/':
				sb.WriteByte(e)
			default:
				return Token{}, lx.errf("invalid escape \\%c", e)
			}
		case '\n':
			return Token{}, lx.errf("newline in string literal")
		default:
			sb.WriteByte(c)
			lx.pos++
		}
	}
	return Token{}, lx.errf("unterminated string")
}

func (lx *RefLexer) skipSpaceAndComments() {
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

func refIsIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
}

func refIsIdentPart(c byte) bool {
	return refIsIdentStart(c) || c >= '0' && c <= '9'
}
