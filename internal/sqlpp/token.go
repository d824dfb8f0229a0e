// Package sqlpp implements the SQL++ query language: lexer, parser, and
// AST. SQL++ extends SQL for semi-structured, schema-optional data (nested
// objects, multisets, missing vs null) and is AsterixDB's current query
// language; the deprecated AQL front end (package aql) parses to the same
// AST, mirroring how the real system implemented SQL++ "as a peer of AQL"
// sharing the Algebricks algebra underneath.
package sqlpp

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokQuotedIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokOp // operators and punctuation
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string // a span of the source, but a keyword's upper-case text or an escaped literal's value
	Pos  int    // byte offset
	Line int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywords maps each SQL++ reserved word (a subset sufficient for the
// implemented grammar; identifiers matching these must be quoted) to its
// canonical text, the upper-case spelling a keyword token carries.
var keywords = map[string]string{}

func init() {
	for _, kw := range strings.Fields(`SELECT VALUE FROM WHERE AS LET WITH GROUP BY HAVING
		ORDER LIMIT OFFSET ASC DESC JOIN LEFT OUTER INNER ON UNNEST DISTINCT ALL UNION
		AND OR NOT IN BETWEEN LIKE IS NULL MISSING UNKNOWN TRUE FALSE EXISTS SOME EVERY
		SATISFIES CASE WHEN THEN ELSE END CREATE DROP DATAVERSE USE TYPE DATASET EXTERNAL
		INDEX PRIMARY KEY CLOSED OPEN IF INSERT UPSERT DELETE INTO USING LOAD RETURNING
		EXPLAIN FOR RETURN`) { // FOR and RETURN: the lexer is shared by the AQL front end
		keywords[kw] = kw
	}
}

// IsKeyword reports whether an upper-cased word is reserved.
func IsKeyword(s string) bool { _, ok := keywords[s]; return ok }
