package sqlpp_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"asterix/internal/algebricks"
	"asterix/internal/sqlpp"
)

// readCorpus reads one of the statement files under
// internal/sqlpp/testdata/corpus, which the tests of several packages
// share: statements are separated by blank lines, and a line starting with
// "--" (always directly above a statement) is a comment.
func readCorpus(t testing.TB, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`(?m)^--.*\n`).ReplaceAllString(string(data), "")
	return strings.Split(strings.TrimSpace(text), "\n\n")
}

// FuzzSQLPPParse checks that the parser never panics: any input must
// either parse or return an error. The seeds cover every statement kind
// plus inputs shaped like past robustness bugs (unterminated strings,
// deep nesting, stray operators). The binder must not panic on what parses,
// and every expression of a parsed statement, nested blocks included, must
// come back from an identity rewrite as the same tree with the same ExprKey.
func FuzzSQLPPParse(f *testing.F) {
	for _, s := range readCorpus(f, "testdata/corpus/fuzz_seeds.sql") {
		f.Add(s)
	}
	for _, s := range []string{``, "\x00\xff SELECT", `-- line comment`} { // what a text file cannot hold
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Errors are expected on arbitrary input.
		stmts, _ := sqlpp.ParseScript(src)
		var exprs []sqlpp.Expr
		for _, st := range stmts {
			switch s := st.(type) {
			case *sqlpp.QueryStmt:
				exprs = append(exprs, s.Body)
			case *sqlpp.ExplainStmt:
				exprs = append(exprs, s.Query.Body)
			case *sqlpp.InsertStmt:
				exprs = append(exprs, s.Expr)
			case *sqlpp.UpsertStmt:
				exprs = append(exprs, s.Expr)
			case *sqlpp.DeleteStmt:
				exprs = append(exprs, s.Where)
			}
		}
		for _, e := range exprs {
			// The binder never panics: a name it cannot resolve (with no
			// catalog, every dataset) is an error.
			_ = algebricks.Bind(e, nil)
		}
		var identity func(sqlpp.Expr) sqlpp.Expr
		identity = func(e sqlpp.Expr) sqlpp.Expr { return sqlpp.Rewrite(e, identity) }
		for len(exprs) > 0 {
			e := exprs[len(exprs)-1]
			exprs = append(exprs[:len(exprs)-1], scopeExprs(e)...)
			if e == nil {
				continue
			}
			key := algebricks.ExprKey(e)
			if got := identity(e); got != e || algebricks.ExprKey(got) != key {
				t.Fatalf("identity rewrite of %s changed it", algebricks.ExprString(e))
			}
		}
	})
}

// scopeExprs lists every expression that e holds directly, the clauses of
// its own scope included when e is opaque.
func scopeExprs(e sqlpp.Expr) (out []sqlpp.Expr) {
	sqlpp.RewriteScopes(e, func(c sqlpp.Expr) sqlpp.Expr { out = append(out, c); return c })
	return out
}
